package glr

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// faultTestSet exercises every disruption model at once: churn with
// state loss, stochastic link blackouts, GPS noise, Byzantine nodes,
// and a scheduled region blackout.
func faultTestSet() []Fault {
	return []Fault{
		{Kind: FaultChurn, Rate: 0.01, Duration: 15},
		{Kind: FaultLinkBlackout, Rate: 0.2, Period: 10},
		{Kind: FaultGPSNoise, Sigma: 30},
		{Kind: FaultByzantine, Fraction: 0.2},
		{Kind: FaultRegionBlackout, X: 300, Y: 50, W: 400, H: 200, Start: 30, End: 90},
	}
}

// runFaulted runs a small faulted scenario under the given protocol and
// returns its result.
func runFaulted(t *testing.T, seed int64, p Protocol, faults []Fault) Result {
	t.Helper()
	opts := []Option{
		WithProtocol(p),
		WithNodes(30),
		WithWorkload(UniformWorkload{Messages: 40}),
		WithSimTime(150),
		WithSeed(seed),
	}
	if len(faults) > 0 {
		opts = append(opts, WithFaults(faults...))
	}
	s, err := NewScenario(opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFaultedRunEquivalence: a faulted run is a pure function of its
// scenario and seed. Under both protocols, the combined fault set and
// each fault kind alone must produce identical results when the same
// scenario runs twice — the fault schedule, the reception vetoes, the
// churn restarts, and the Byzantine drops may read nothing outside it.
func TestFaultedRunEquivalence(t *testing.T) {
	all := faultTestSet()
	sets := map[string][]Fault{"all": all}
	for _, f := range all {
		sets[string(f.Kind)] = []Fault{f}
	}
	for _, p := range []Protocol{GLR, Epidemic} {
		for name, faults := range sets {
			first := runFaulted(t, 7, p, faults)
			if name == "all" && first.Delivered == 0 {
				t.Fatalf("%s: faulted baseline delivered nothing; scenario too hostile to be meaningful", p)
			}
			if second := runFaulted(t, 7, p, faults); !reflect.DeepEqual(first, second) {
				t.Errorf("%s faults=%s: repeated run diverged:\n  first:  %+v\n  second: %+v", p, name, first, second)
			}
		}
	}
}

// TestZeroFaultsByteIdentity: building a scenario with an empty
// WithFaults (or none at all) must leave results byte-identical — the
// fault subsystem may not perturb a fault-free run, not even by
// consuming an RNG draw or an event sequence number.
func TestZeroFaultsByteIdentity(t *testing.T) {
	for _, p := range []Protocol{GLR, Epidemic} {
		plain := runFaulted(t, 3, p, nil)
		empty := runFaulted(t, 3, p, []Fault{})
		if !reflect.DeepEqual(plain, empty) {
			t.Errorf("%s: empty WithFaults diverged from no faults:\n  plain: %+v\n  empty: %+v",
				p, plain, empty)
		}
	}
}

// TestNonFiniteFaultsRejected: NaN fails every ordered comparison and
// ±Inf passes some, so a non-finite fault field must be rejected at
// NewScenario — before it can schedule an event at a non-finite time
// or silently zero delivery — and never reach Run.
func TestNonFiniteFaultsRejected(t *testing.T) {
	for _, slug := range []string{
		"churn(rate=0.01,dur=NaN)",
		"churn(rate=NaN,dur=5)",
		"churn(rate=0.01,dur=Inf)",
		"churn(rate=Inf,dur=5)",
		"gps-noise(sigma=NaN)",
		"gps-noise(sigma=Inf)",
		"link-blackout(rate=NaN)",
		"link-blackout(rate=0.2,period=NaN)",
		"link-blackout(rate=0.2,period=Inf)",
		"byzantine(frac=NaN)",
		"region-blackout(x=NaN,y=0,w=100,h=100,start=0,end=50)",
		"region-blackout(x=0,y=0,w=100,h=100,start=0,end=Inf)",
		"region-blackout(x=0,y=0,w=100,h=100,start=-Inf,end=50)",
	} {
		t.Run(slug, func(t *testing.T) {
			faults, err := ParseFaults(slug)
			if err != nil {
				t.Fatalf("ParseFaults: %v", err)
			}
			base := []Option{WithNodes(30), WithWorkload(UniformWorkload{Messages: 40}), WithSimTime(150)}
			if _, err := NewScenario(base...); err != nil {
				t.Fatalf("fault-free scenario rejected: %v", err)
			}
			sc, err := NewScenario(append(base, WithFaults(faults...))...)
			if err == nil {
				t.Fatalf("NewScenario accepted %+v", faults)
			}
			if sc != nil {
				t.Fatalf("NewScenario returned a scenario alongside error %v", err)
			}
		})
	}
}

// TestFaultScheduleReplay: identical seeds replay the identical fault
// schedule (the observer's event stream) and run outcome; a different
// seed draws a different schedule.
func TestFaultScheduleReplay(t *testing.T) {
	faults := []Fault{{Kind: FaultChurn, Rate: 0.01, Duration: 15}}
	observe := func(seed int64) ([]FaultEvent, Result) {
		var events []FaultEvent
		s, err := NewScenario(
			WithNodes(30),
			WithWorkload(UniformWorkload{Messages: 40}),
			WithSimTime(150),
			WithSeed(seed),
			WithFaults(faults...),
			WithObserver(&Observer{OnFault: func(e FaultEvent) { events = append(events, e) }}),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return events, res
	}
	ev1, res1 := observe(5)
	ev2, res2 := observe(5)
	if len(ev1) == 0 {
		t.Fatal("churn plan produced no fault events")
	}
	if !reflect.DeepEqual(ev1, ev2) {
		t.Errorf("same seed replayed different fault schedules: %d vs %d events", len(ev1), len(ev2))
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Errorf("same seed produced different results:\n  %+v\n  %+v", res1, res2)
	}
	ev3, _ := observe(6)
	if reflect.DeepEqual(ev1, ev3) {
		t.Error("different seeds replayed the identical fault schedule")
	}
	for _, e := range ev1 {
		if e.Kind != FaultChurn {
			t.Fatalf("unexpected event kind %q", e.Kind)
		}
		if e.Node < 0 || e.Node >= 30 {
			t.Fatalf("event node %d out of range", e.Node)
		}
	}
}

// TestFaultSampleIntensity: samples of a heavily faulted run must
// report fault intensity (drops, and down nodes at some instant),
// while a fault-free run reports zero on both.
func TestFaultSampleIntensity(t *testing.T) {
	run := func(faults []Fault) (maxDown int, drops uint64) {
		opts := []Option{
			WithNodes(30),
			WithWorkload(UniformWorkload{Messages: 40}),
			WithSimTime(150),
			WithObserver(&Observer{
				SampleEvery: 5,
				OnSample: func(s Sample) {
					if s.NodesDown > maxDown {
						maxDown = s.NodesDown
					}
					drops = s.FaultDrops
				},
			}),
		}
		if len(faults) > 0 {
			opts = append(opts, WithFaults(faults...))
		}
		s, err := NewScenario(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return maxDown, drops
	}
	down, drops := run([]Fault{
		{Kind: FaultChurn, Rate: 0.02, Duration: 30},
		{Kind: FaultLinkBlackout, Rate: 0.5, Period: 10},
	})
	if down == 0 {
		t.Error("churn at rate 0.02 never sampled a down node")
	}
	if drops == 0 {
		t.Error("link blackout at rate 0.5 never dropped a reception")
	}
	down, drops = run(nil)
	if down != 0 || drops != 0 {
		t.Errorf("fault-free run reported intensity: down=%d drops=%d", down, drops)
	}
}

// TestWithFaultsValidation: malformed fault specs must be rejected at
// scenario construction with a descriptive error.
func TestWithFaultsValidation(t *testing.T) {
	bad := []struct {
		name  string
		fault Fault
	}{
		{"negative churn rate", Fault{Kind: FaultChurn, Rate: -1, Duration: 10}},
		{"churn without duration", Fault{Kind: FaultChurn, Rate: 0.1}},
		{"negative churn duration", Fault{Kind: FaultChurn, Rate: 0.1, Duration: -5}},
		{"link rate above 1", Fault{Kind: FaultLinkBlackout, Rate: 1.5}},
		{"negative link period", Fault{Kind: FaultLinkBlackout, Rate: 0.2, Period: -1}},
		{"rect outside region", Fault{Kind: FaultRegionBlackout, X: 1400, Y: 0, W: 200, H: 100, Start: 0, End: 10}},
		{"negative rect size", Fault{Kind: FaultRegionBlackout, X: 0, Y: 0, W: -10, H: 10, Start: 0, End: 10}},
		{"inverted window", Fault{Kind: FaultRegionBlackout, X: 0, Y: 0, W: 10, H: 10, Start: 20, End: 10}},
		{"negative sigma", Fault{Kind: FaultGPSNoise, Sigma: -1}},
		{"fraction above 1", Fault{Kind: FaultByzantine, Fraction: 1.1}},
		{"unknown kind", Fault{Kind: "meteor-strike"}},
	}
	for _, tc := range bad {
		if _, err := NewScenario(WithFaults(tc.fault)); err == nil {
			t.Errorf("%s: accepted %+v", tc.name, tc.fault)
		}
	}
	if _, err := NewScenario(WithFaults(faultTestSet()...)); err != nil {
		t.Errorf("valid fault set rejected: %v", err)
	}
}

// TestEncodeParseFaults: the canonical slug round-trips, empty sets
// encode to "", and malformed slugs are rejected.
func TestEncodeParseFaults(t *testing.T) {
	set := faultTestSet()
	enc := EncodeFaults(set)
	if enc == "" || !strings.Contains(enc, "churn(") || !strings.Contains(enc, "+byzantine(") {
		t.Fatalf("unexpected encoding %q", enc)
	}
	back, err := ParseFaults(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(set, back) {
		t.Errorf("round trip changed the set:\n  in:  %+v\n  out: %+v", set, back)
	}
	if EncodeFaults(back) != enc {
		t.Errorf("re-encoding drifted: %q vs %q", EncodeFaults(back), enc)
	}
	if got := EncodeFaults(nil); got != "" {
		t.Errorf("EncodeFaults(nil) = %q, want \"\"", got)
	}
	if fs, err := ParseFaults(""); err != nil || fs != nil {
		t.Errorf("ParseFaults(\"\") = %v, %v; want nil, nil", fs, err)
	}
	for _, s := range []string{
		"meteor-strike(rate=1)",
		"churn(rate=0.1,boom=2)",
		"churn(rate=abc)",
		"churn(rate0.1)",
		"churn(rate=0.1",
	} {
		if _, err := ParseFaults(s); err == nil {
			t.Errorf("ParseFaults(%q) accepted", s)
		}
	}
}

// TestMatrixFaultAxis: fault sets are a first-class matrix axis — they
// appear in Axes, expand the cell cross-product, ride cell labels, and
// stay invisible (for cache-key stability) on fault-free cells.
func TestMatrixFaultAxis(t *testing.T) {
	m := Matrix{
		Nodes: []int{30},
		Faults: [][]Fault{
			nil,
			{{Kind: FaultChurn, Rate: 0.004, Duration: 30}},
		},
		Messages: 40,
		Seeds:    2,
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	var faultAxis *Axis
	for _, ax := range m.Axes() {
		if ax.Name == "faults" {
			ax := ax
			faultAxis = &ax
		}
	}
	if faultAxis == nil {
		t.Fatal("no faults axis")
	}
	want := []string{"none", "churn(rate=0.004,dur=30)"}
	if !reflect.DeepEqual(faultAxis.Values, want) {
		t.Errorf("faults axis %v, want %v", faultAxis.Values, want)
	}

	cells := m.Cells()
	if len(cells) != 4 { // 2 fault sets × 2 protocols
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	if cells[0].Faults != "" || cells[2].Faults != "churn(rate=0.004,dur=30)" {
		t.Errorf("cell fault encodings: %q, %q", cells[0].Faults, cells[2].Faults)
	}
	if l := cells[2].Label(); !strings.HasSuffix(l, "/churn(rate=0.004,dur=30)") {
		t.Errorf("faulted label %q lacks fault slug", l)
	}
	if l := cells[0].Label(); strings.Contains(l, "churn") {
		t.Errorf("fault-free label %q mentions faults", l)
	}

	// Fault-free cells must serialize exactly as they did before the
	// fault axis existed: cache keys hash the cell's JSON.
	raw, err := json.Marshal(cells[0])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "Faults") {
		t.Errorf("fault-free cell JSON mentions Faults: %s", raw)
	}

	// A faulted cell compiles into a runnable scenario; a corrupt slug
	// surfaces at Options.
	if _, err := cells[2].Scenario(WithSeed(2)); err != nil {
		t.Errorf("faulted cell failed to compile: %v", err)
	}
	corrupt := cells[2]
	corrupt.Faults = "meteor-strike(x=1)"
	if _, err := corrupt.Options(); err == nil {
		t.Error("corrupt fault slug accepted by Options")
	}

	bad := Matrix{Faults: [][]Fault{{{Kind: FaultChurn, Rate: -1, Duration: 5}}}}
	if err := bad.Validate(); err == nil {
		t.Error("matrix with malformed fault accepted")
	}
}

// TestFaultKindsCoverInternal pins the public kind constants to their
// internal spellings (the serialization format).
func TestFaultKindsCoverInternal(t *testing.T) {
	for kind, want := range map[FaultKind]string{
		FaultLinkBlackout:   "link-blackout",
		FaultRegionBlackout: "region-blackout",
		FaultChurn:          "churn",
		FaultGPSNoise:       "gps-noise",
		FaultByzantine:      "byzantine",
	} {
		if string(kind) != want {
			t.Errorf("kind %q, want %q", kind, want)
		}
	}
}

// TestFaultedRunnerSmoke: a faulted scenario runs under the Runner's
// replication machinery and degrades delivery versus fault-free.
func TestFaultedRunnerSmoke(t *testing.T) {
	res := runFaulted(t, 1, GLR, nil)
	faulted := runFaulted(t, 1, GLR, []Fault{
		{Kind: FaultChurn, Rate: 0.05, Duration: 60},
		{Kind: FaultLinkBlackout, Rate: 0.6, Period: 10},
	})
	if faulted.DeliveryRatio >= res.DeliveryRatio {
		t.Logf("warning: heavy faults did not reduce delivery (%v vs %v)", faulted.DeliveryRatio, res.DeliveryRatio)
	}
	if faulted.Generated == 0 {
		t.Fatal("faulted run generated nothing")
	}
	_ = fmt.Sprintf("%v", faulted)
}
