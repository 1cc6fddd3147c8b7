package glr

import (
	"fmt"
	"strconv"
	"strings"

	"glr/internal/fault"
)

// FaultKind names one of the built-in disruption models a Fault can
// declare. Like MobilityKind and WorkloadKind, a kind is a canonical
// string so fault sets serialize deterministically and can ride through
// scenario matrices and content-addressed result caches.
type FaultKind string

// The disruption models WithFaults can inject.
const (
	// FaultLinkBlackout severs random links: in every epoch of length
	// Period seconds, each unordered node pair is independently blacked
	// out with probability Rate (frames between the pair are lost).
	FaultLinkBlackout FaultKind = FaultKind(fault.LinkBlackout)
	// FaultRegionBlackout jams a rectangle for a scheduled window:
	// frames with either endpoint inside the rectangle are lost while
	// Start ≤ t < End.
	FaultRegionBlackout FaultKind = FaultKind(fault.RegionBlackout)
	// FaultChurn crashes nodes and restarts them with full state loss:
	// each node fails as a Poisson process of Rate crashes per second
	// and stays down for Duration seconds per outage.
	FaultChurn FaultKind = FaultKind(fault.Churn)
	// FaultGPSNoise perturbs the position every node advertises in its
	// beacons by independent Gaussian error with standard deviation
	// Sigma meters per axis.
	FaultGPSNoise FaultKind = FaultKind(fault.GPSNoise)
	// FaultByzantine marks a Fraction of nodes adversarial: they
	// advertise lying positions and silently drop every protocol frame
	// handed to them, losing custody without acknowledgment.
	FaultByzantine FaultKind = FaultKind(fault.Byzantine)
)

// Fault declares one disruption model for WithFaults. It is flat plain
// data — comparable and canonically serializable via EncodeFaults — so
// fault sets can become a Matrix axis. Fields not used by a Kind must
// stay zero; Validate (run at scenario construction) rejects anything
// else, along with NaN and ±Inf, negative rates and durations,
// probabilities outside [0,1], and blackout rectangles outside the
// deployment region.
type Fault struct {
	// Kind selects the disruption model.
	Kind FaultKind
	// Rate is the per-epoch link-blackout probability
	// (FaultLinkBlackout, in [0,1]) or the per-node crash rate in
	// crashes per second (FaultChurn).
	Rate float64 `json:",omitempty"`
	// Period is the FaultLinkBlackout epoch length in seconds
	// (default 10).
	Period float64 `json:",omitempty"`
	// Duration is the FaultChurn per-outage downtime in seconds.
	Duration float64 `json:",omitempty"`
	// Start bounds the FaultRegionBlackout window from below.
	Start float64 `json:",omitempty"`
	// End bounds the FaultRegionBlackout window from above
	// (the window is [Start, End)).
	End float64 `json:",omitempty"`
	// X is the FaultRegionBlackout rectangle's left edge in meters.
	X float64 `json:",omitempty"`
	// Y is the FaultRegionBlackout rectangle's bottom edge in meters.
	Y float64 `json:",omitempty"`
	// W is the FaultRegionBlackout rectangle's width in meters.
	W float64 `json:",omitempty"`
	// H is the FaultRegionBlackout rectangle's height in meters.
	H float64 `json:",omitempty"`
	// Sigma is the FaultGPSNoise per-axis standard deviation in meters.
	Sigma float64 `json:",omitempty"`
	// Fraction is the FaultByzantine share of nodes, in [0,1].
	Fraction float64 `json:",omitempty"`
}

// spec lowers the public fault onto the internal model.
func (f Fault) spec() fault.Spec {
	return fault.Spec{
		Kind:     fault.Kind(f.Kind),
		Rate:     f.Rate,
		Period:   f.Period,
		Duration: f.Duration,
		Start:    f.Start,
		End:      f.End,
		X:        f.X,
		Y:        f.Y,
		W:        f.W,
		H:        f.H,
		Sigma:    f.Sigma,
		Fraction: f.Fraction,
	}
}

// WithFaults injects disruption models into the scenario's runs. Faults
// compose: several models (and several instances of one model) apply
// simultaneously. The compiled fault schedule is a pure function of the
// fault set and the run seed — identical seeds replay identical
// schedules — and an empty fault set leaves the run byte-identical to one built without
// this option. Malformed faults are rejected at NewScenario.
func WithFaults(faults ...Fault) Option {
	return func(s *Scenario) error {
		s.faults = append(s.faults, faults...)
		return nil
	}
}

// faultFields lists, per kind, the encodable fields in canonical order:
// their slugs and accessors for EncodeFaults/ParseFaults.
var faultFields = map[FaultKind][]struct {
	key string
	get func(*Fault) *float64
}{
	FaultLinkBlackout: {
		{"rate", func(f *Fault) *float64 { return &f.Rate }},
		{"period", func(f *Fault) *float64 { return &f.Period }},
	},
	FaultRegionBlackout: {
		{"x", func(f *Fault) *float64 { return &f.X }},
		{"y", func(f *Fault) *float64 { return &f.Y }},
		{"w", func(f *Fault) *float64 { return &f.W }},
		{"h", func(f *Fault) *float64 { return &f.H }},
		{"start", func(f *Fault) *float64 { return &f.Start }},
		{"end", func(f *Fault) *float64 { return &f.End }},
	},
	FaultChurn: {
		{"rate", func(f *Fault) *float64 { return &f.Rate }},
		{"dur", func(f *Fault) *float64 { return &f.Duration }},
	},
	FaultGPSNoise: {
		{"sigma", func(f *Fault) *float64 { return &f.Sigma }},
	},
	FaultByzantine: {
		{"frac", func(f *Fault) *float64 { return &f.Fraction }},
	},
}

// EncodeFaults renders a fault set as its canonical slug — e.g.
// "churn(rate=0.002,dur=30)+gps-noise(sigma=25)" — with models joined
// by "+", fields in a fixed per-kind order, and zero fields omitted.
// The encoding is what Matrix uses as the fault-axis value and what
// cache keys and cell labels embed; ParseFaults inverts it. An empty
// set encodes as "".
func EncodeFaults(faults []Fault) string {
	parts := make([]string, 0, len(faults))
	for i := range faults {
		f := faults[i]
		var kv []string
		for _, fld := range faultFields[f.Kind] {
			if v := *fld.get(&f); v != 0 {
				kv = append(kv, fld.key+"="+strconv.FormatFloat(v, 'g', -1, 64))
			}
		}
		part := string(f.Kind)
		if len(kv) > 0 {
			part += "(" + strings.Join(kv, ",") + ")"
		}
		parts = append(parts, part)
	}
	return strings.Join(parts, "+")
}

// splitModels splits a fault slug at the "+" that joins its models. A
// "+" inside an argument list is a sign ("1e+21", "+Inf") and stays.
func splitModels(s string) []string {
	var parts []string
	start, inArgs := 0, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			inArgs = true
		case ')':
			inArgs = false
		case '+':
			if !inArgs {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	return append(parts, s[start:])
}

// ParseFaults parses the slug format EncodeFaults renders back into a
// fault set. "" parses to nil (fault-free). Unknown kinds and field
// keys are errors; range validation happens later, at scenario
// construction.
func ParseFaults(s string) ([]Fault, error) {
	if s == "" {
		return nil, nil
	}
	var out []Fault
	for _, part := range splitModels(s) {
		kind := part
		args := ""
		if i := strings.IndexByte(part, '('); i >= 0 {
			if !strings.HasSuffix(part, ")") {
				return nil, fmt.Errorf("glr: fault %q: unterminated argument list", part)
			}
			kind, args = part[:i], part[i+1:len(part)-1]
		}
		fields, ok := faultFields[FaultKind(kind)]
		if !ok {
			return nil, fmt.Errorf("glr: unknown fault kind %q", kind)
		}
		f := Fault{Kind: FaultKind(kind)}
		if args != "" {
			for _, kv := range strings.Split(args, ",") {
				key, val, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("glr: fault %q: argument %q is not key=value", part, kv)
				}
				var dst *float64
				for _, fld := range fields {
					if fld.key == key {
						dst = fld.get(&f)
						break
					}
				}
				if dst == nil {
					return nil, fmt.Errorf("glr: fault %q: unknown field %q for kind %q", part, key, kind)
				}
				v, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("glr: fault %q: field %q: %v", part, key, err)
				}
				*dst = v
			}
		}
		out = append(out, f)
	}
	return out, nil
}
