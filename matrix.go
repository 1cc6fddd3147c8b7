package glr

import (
	"fmt"
	"strconv"
	"strings"
)

// MobilityKind names one of the built-in mobility models as a value a
// Matrix axis can sweep. Unlike the Mobility implementations (Waypoint,
// Static, RandomWalk), a kind is a plain string: it serializes
// canonically, so matrix drivers can content-address results by it.
// Each kind expands to its model with the paper's default parameters.
type MobilityKind string

// The mobility models a Matrix can sweep.
const (
	// MobilityWaypoint is the paper's random waypoint model (0–20 m/s,
	// no pause).
	MobilityWaypoint MobilityKind = "waypoint"
	// MobilityStatic places nodes uniformly at random and never moves
	// them.
	MobilityStatic MobilityKind = "static"
	// MobilityRandomWalk is the reflecting random walk (0–20 m/s, 20 s
	// legs).
	MobilityRandomWalk MobilityKind = "randomwalk"
)

// Mobility returns the model the kind names, with its default
// parameters.
func (k MobilityKind) Mobility() (Mobility, error) {
	switch k {
	case MobilityWaypoint:
		return Waypoint{}, nil
	case MobilityStatic:
		return Static{}, nil
	case MobilityRandomWalk:
		return RandomWalk{}, nil
	default:
		return nil, fmt.Errorf("glr: unknown mobility kind %q", k)
	}
}

// WorkloadKind names one of the built-in traffic workloads as a value a
// Matrix axis can sweep. Like MobilityKind, a kind is a canonical
// string; it expands to its generator at a given message count with
// default knobs (1 msg/s, one hotspot sink).
type WorkloadKind string

// The workloads a Matrix can sweep.
const (
	// WorkloadPaper is the paper's round-robin evaluation traffic.
	WorkloadPaper WorkloadKind = "paper"
	// WorkloadUniform draws uniformly random distinct pairs at a fixed
	// rate.
	WorkloadUniform WorkloadKind = "uniform"
	// WorkloadPoisson draws uniformly random distinct pairs with
	// Poisson arrivals.
	WorkloadPoisson WorkloadKind = "poisson"
	// WorkloadHotspot concentrates all traffic on a single sink node.
	WorkloadHotspot WorkloadKind = "hotspot"
)

// Workload returns the generator the kind names, scheduling messages
// generations with default knobs.
func (k WorkloadKind) Workload(messages int) (Workload, error) {
	switch k {
	case WorkloadPaper:
		return PaperWorkload{Messages: messages}, nil
	case WorkloadUniform:
		return UniformWorkload{Messages: messages}, nil
	case WorkloadPoisson:
		return PoissonWorkload{Messages: messages}, nil
	case WorkloadHotspot:
		return HotspotWorkload{Messages: messages}, nil
	default:
		return nil, fmt.Errorf("glr: unknown workload kind %q", k)
	}
}

// Axis is one named dimension of a scenario Matrix together with the
// values it sweeps, rendered as strings in sweep order. Axes are the
// presentation surface of a matrix: drivers use them to label regime
// maps and trend plots.
type Axis struct {
	Name   string
	Values []string
}

// Matrix describes a cross-product of scenario axes: every combination
// of protocol × mobility × workload × node count × transmission range ×
// storage limit × fault set × GLR configuration becomes one Cell, and
// each cell is replicated over
// Seeds consecutive seeds starting at BaseSeed. Nil or zero fields take
// the defaults noted on each field, so the zero Matrix is the paper's
// Table-1 baseline compared across both protocols.
//
// A Matrix is pure description: Cells enumerates the cross-product in a
// deterministic order, and each Cell compiles to a Scenario via
// Cell.Scenario. The scenario-matrix driver behind cmd/glratlas and
// cmd/glrexp (internal/matrix) executes matrices with a content-keyed
// result cache; glratlas renders the regime-map atlas in docs/ATLAS.md,
// and glrexp the paper's tables and figures.
type Matrix struct {
	// Protocols to compare (default {GLR, Epidemic}).
	Protocols []Protocol
	// Mobilities to sweep (default {MobilityWaypoint}).
	Mobilities []MobilityKind
	// Workloads to sweep (default {WorkloadPaper}).
	Workloads []WorkloadKind
	// Nodes holds the network sizes to sweep (default {50}).
	Nodes []int
	// Ranges holds the transmission ranges in metres (default {100}).
	Ranges []float64
	// StorageLimits holds the per-node buffer bounds to sweep; 0 means
	// unlimited (default {0}).
	StorageLimits []int
	// Faults holds the fault sets to sweep, each one a composition of
	// disruption models applied together; nil inside the list means
	// fault-free (default {nil} — a single fault-free regime).
	Faults [][]Fault
	// GLR holds the GLR configurations to sweep (default {GLRConfig{}},
	// the paper's settings). Only GLR cells take them: an epidemic cell
	// carries none, so epidemic cells that differ only in this axis are
	// one cell.
	GLR []GLRConfig

	// Messages is the per-cell workload size (default 200).
	Messages int
	// SimTime is the per-cell horizon in seconds. The default derives
	// it from the workload as Messages + 600 s of delivery slack, the
	// same rule Scenario uses, but pinned per cell so every seed of a
	// cell observes an identical horizon.
	SimTime float64
	// Seeds is the number of replications per cell (default 3).
	Seeds int
	// BaseSeed seeds replication r of every cell with BaseSeed + r
	// (default 1).
	BaseSeed int64
}

// Normalized returns the matrix with every unset field replaced by its
// documented default. Cells, Axes, and Validate all operate on the
// normalized form; drivers should key caches by it so that spelling a
// default out explicitly does not change cell identity.
func (m Matrix) Normalized() Matrix {
	if len(m.Protocols) == 0 {
		m.Protocols = []Protocol{GLR, Epidemic}
	}
	if len(m.Mobilities) == 0 {
		m.Mobilities = []MobilityKind{MobilityWaypoint}
	}
	if len(m.Workloads) == 0 {
		m.Workloads = []WorkloadKind{WorkloadPaper}
	}
	if len(m.Nodes) == 0 {
		m.Nodes = []int{50}
	}
	if len(m.Ranges) == 0 {
		m.Ranges = []float64{100}
	}
	if len(m.StorageLimits) == 0 {
		m.StorageLimits = []int{0}
	}
	if len(m.Faults) == 0 {
		m.Faults = [][]Fault{nil}
	}
	if len(m.GLR) == 0 {
		m.GLR = []GLRConfig{{}}
	}
	if m.Messages == 0 {
		m.Messages = 200
	}
	if m.SimTime == 0 {
		m.SimTime = float64(m.Messages) + 600
	}
	if m.Seeds == 0 {
		m.Seeds = 3
	}
	if m.BaseSeed == 0 {
		m.BaseSeed = 1
	}
	return m
}

// Validate reports a descriptive error for unusable matrices: a seed
// count below 1, a GLR configuration out of its domain (even when only
// epidemic cells would run), or a cell that does not compile via
// Cell.Scenario with one of the matrix's seeds (a seed changes the
// workload's schedule). It checks the normalized form, so empty axes
// (which default) are fine but any explicit value out of its domain is
// not.
func (m Matrix) Validate() error {
	n := m.Normalized()
	if n.Seeds < 1 {
		return fmt.Errorf("glr: matrix seed count %d must be ≥ 1", n.Seeds)
	}
	for _, g := range n.GLR {
		if _, err := buildFactory(GLR, &g); err != nil {
			return fmt.Errorf("glr: matrix GLR configuration %+v: %w", g, err)
		}
	}
	for _, c := range n.Cells() {
		for r := 0; r < n.Seeds; r++ {
			seed := n.BaseSeed + int64(r)
			if _, err := c.Scenario(WithSeed(seed)); err != nil {
				return fmt.Errorf("glr: matrix cell %s seed %d: %w", c.Label(), seed, err)
			}
		}
	}
	return nil
}

// Axes returns the matrix's dimensions in canonical order — protocol,
// mobility, workload, nodes, range, storage, faults, and glr unless the
// GLR axis is only the default configuration — with their normalized
// value lists rendered as strings.
func (m Matrix) Axes() []Axis {
	n := m.Normalized()
	axes := make([]Axis, 0, 8)
	add := func(name string, vals []string) {
		axes = append(axes, Axis{Name: name, Values: vals})
	}
	ps := make([]string, len(n.Protocols))
	for i, p := range n.Protocols {
		ps[i] = string(p)
	}
	add("protocol", ps)
	ms := make([]string, len(n.Mobilities))
	for i, k := range n.Mobilities {
		ms[i] = string(k)
	}
	add("mobility", ms)
	ws := make([]string, len(n.Workloads))
	for i, k := range n.Workloads {
		ws[i] = string(k)
	}
	add("workload", ws)
	ns := make([]string, len(n.Nodes))
	for i, v := range n.Nodes {
		ns[i] = strconv.Itoa(v)
	}
	add("nodes", ns)
	rs := make([]string, len(n.Ranges))
	for i, v := range n.Ranges {
		rs[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	add("range", rs)
	ss := make([]string, len(n.StorageLimits))
	for i, v := range n.StorageLimits {
		if v == 0 {
			ss[i] = "unlimited"
		} else {
			ss[i] = strconv.Itoa(v)
		}
	}
	add("storage", ss)
	fs := make([]string, len(n.Faults))
	for i, v := range n.Faults {
		if enc := EncodeFaults(v); enc != "" {
			fs[i] = enc
		} else {
			fs[i] = "none"
		}
	}
	add("faults", fs)
	if len(n.GLR) > 1 || n.GLR[0] != (GLRConfig{}) {
		gs := make([]string, len(n.GLR))
		for i, g := range n.GLR {
			if gs[i] = g.slug(); gs[i] == "" {
				gs[i] = "default"
			}
		}
		add("glr", gs)
	}
	return axes
}

// Cells enumerates the cross-product of the normalized axes in a
// deterministic order: mobility-major, then workload, nodes, range,
// storage, faults, GLR configuration, with protocol innermost so a
// coordinate's protocol variants are adjacent. Every cell carries the
// matrix's Messages and SimTime, making it a self-contained, canonically
// serializable scenario spec. A GLR cell carries its configuration
// unless it is the paper's default; an epidemic cell never does.
func (m Matrix) Cells() []Cell {
	n := m.Normalized()
	cells := make([]Cell, 0,
		len(n.Mobilities)*len(n.Workloads)*len(n.Nodes)*len(n.Ranges)*
			len(n.StorageLimits)*len(n.Faults)*len(n.GLR)*len(n.Protocols))
	for _, mob := range n.Mobilities {
		for _, work := range n.Workloads {
			for _, nodes := range n.Nodes {
				for _, rng := range n.Ranges {
					for _, storage := range n.StorageLimits {
						for _, faults := range n.Faults {
							for _, g := range n.GLR {
								for _, proto := range n.Protocols {
									c := Cell{
										Protocol:     proto,
										Mobility:     mob,
										Workload:     work,
										Nodes:        nodes,
										Range:        rng,
										StorageLimit: storage,
										Faults:       EncodeFaults(faults),
										Messages:     n.Messages,
										SimTime:      n.SimTime,
									}
									if proto != Epidemic && g != (GLRConfig{}) {
										g := g
										c.GLR = &g
									}
									cells = append(cells, c)
								}
							}
						}
					}
				}
			}
		}
	}
	return cells
}

// Cell is one fully determined point of a Matrix: a scenario spec with
// every axis pinned to a concrete value. Cells are plain data — they
// serialize canonically, which is what lets matrix drivers
// content-address cached results — and compile to a runnable Scenario
// with Scenario.
type Cell struct {
	Protocol     Protocol
	Mobility     MobilityKind
	Workload     WorkloadKind
	Nodes        int
	Range        float64 // metres
	StorageLimit int     // messages per node; 0 = unlimited
	// Faults is the cell's fault set in EncodeFaults form; "" means
	// fault-free. A canonical string (not a slice) keeps cells
	// comparable — they key caches and regime-map groupings — and
	// omitempty keeps fault-free cells byte-identical to cells
	// serialized before the fault axis existed.
	Faults   string `json:",omitempty"`
	Messages int
	SimTime  float64 // seconds
	// GLR is the cell's GLR configuration; nil means the paper's
	// defaults, and epidemic cells always have nil. omitempty keeps
	// default cells byte-identical to cells serialized before the GLR
	// axis existed, so their cache keys stay the same.
	GLR *GLRConfig `json:",omitempty"`
}

// Options expands the cell into the scenario options it pins. The run
// seed is deliberately not among them: drivers append WithSeed per
// replication.
func (c Cell) Options() ([]Option, error) {
	mob, err := c.Mobility.Mobility()
	if err != nil {
		return nil, err
	}
	work, err := c.Workload.Workload(c.Messages)
	if err != nil {
		return nil, err
	}
	faults, err := ParseFaults(c.Faults)
	if err != nil {
		return nil, err
	}
	opts := []Option{
		WithProtocol(c.Protocol),
		WithMobility(mob),
		WithWorkload(work),
		WithNodes(c.Nodes),
		WithRange(c.Range),
		WithStorageLimit(c.StorageLimit),
		WithSimTime(c.SimTime),
	}
	if len(faults) > 0 {
		opts = append(opts, WithFaults(faults...))
	}
	if c.GLR != nil {
		opts = append(opts, WithGLR(*c.GLR))
	}
	return opts, nil
}

// Scenario compiles the cell into a runnable Scenario, seeded with the
// extra options (typically WithSeed for one replication, WithObserver
// for a probe).
func (c Cell) Scenario(extra ...Option) (*Scenario, error) {
	opts, err := c.Options()
	if err != nil {
		return nil, err
	}
	return NewScenario(append(opts, extra...)...)
}

// Coordinate returns the cell with its protocol and GLR configuration
// cleared — the shared scenario coordinate a regime map compares
// protocol variants at.
func (c Cell) Coordinate() Cell {
	c.Protocol = ""
	c.GLR = nil
	return c
}

// Label renders the cell as a compact slug —
// protocol/mobility/workload/n<nodes>/r<range>/s<storage> — with "s∞"
// for unlimited storage and the fault-set slug appended only when the
// cell injects faults, so fault-free labels match those minted before
// the fault axis existed, and likewise the GLR configuration's
// settings (see Axes) only when the cell carries one. Labels identify
// cells in the atlas and in golden files; cache files are named by
// content key, not label.
func (c Cell) Label() string {
	storage := "s∞"
	if c.StorageLimit > 0 {
		storage = "s" + strconv.Itoa(c.StorageLimit)
	}
	parts := []string{
		string(c.Protocol),
		string(c.Mobility),
		string(c.Workload),
		"n" + strconv.Itoa(c.Nodes),
		"r" + strconv.FormatFloat(c.Range, 'g', -1, 64),
		storage,
	}
	if c.Protocol == "" {
		parts = parts[1:]
	}
	if c.Faults != "" {
		parts = append(parts, c.Faults)
	}
	if c.GLR != nil {
		parts = append(parts, c.GLR.slug())
	}
	return strings.Join(parts, "/")
}

// slug renders the configuration's non-default settings in field order,
// e.g. "copies=3,location=none" or "nocustody"; "" for the defaults.
func (g GLRConfig) slug() string {
	var kv []string
	add := func(set bool, s string) {
		if set {
			kv = append(kv, s)
		}
	}
	add(g.CheckInterval != 0, "interval="+strconv.FormatFloat(g.CheckInterval, 'g', -1, 64))
	add(g.Copies != 0, "copies="+strconv.Itoa(g.Copies))
	add(g.DisableCustody, "nocustody")
	add(g.Location != "", "location="+g.Location)
	add(g.Spanner != "", "spanner="+g.Spanner)
	add(g.DisableFaceRouting, "noface")
	add(g.DisableHysteresis, "nohysteresis")
	return strings.Join(kv, ",")
}
