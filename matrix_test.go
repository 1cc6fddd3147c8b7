package glr

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestMatrixNormalizedDefaults(t *testing.T) {
	m := Matrix{}.Normalized()
	if len(m.Protocols) != 2 || m.Protocols[0] != GLR || m.Protocols[1] != Epidemic {
		t.Fatalf("default protocols = %v", m.Protocols)
	}
	if len(m.Mobilities) != 1 || m.Mobilities[0] != MobilityWaypoint {
		t.Fatalf("default mobilities = %v", m.Mobilities)
	}
	if len(m.Workloads) != 1 || m.Workloads[0] != WorkloadPaper {
		t.Fatalf("default workloads = %v", m.Workloads)
	}
	if m.Messages != 200 || m.Seeds != 3 || m.BaseSeed != 1 {
		t.Fatalf("default replication = %d msgs, %d seeds, base %d", m.Messages, m.Seeds, m.BaseSeed)
	}
	if m.SimTime != float64(m.Messages)+600 {
		t.Fatalf("default horizon = %v", m.SimTime)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("normalized zero matrix invalid: %v", err)
	}
}

func TestMatrixValidateRejectsBadValues(t *testing.T) {
	bad := []Matrix{
		{Mobilities: []MobilityKind{"teleport"}},
		{Workloads: []WorkloadKind{"bursty"}},
		{Protocols: []Protocol{"carrier-pigeon"}},
		{Nodes: []int{0}},
		{Ranges: []float64{-1}},
		{StorageLimits: []int{-2}},
		{Ranges: []float64{1e308}},
		{Seeds: -1},
	}
	for i, m := range bad {
		if err := m.Normalized().Validate(); err == nil {
			t.Errorf("bad matrix %d validated", i)
		}
	}
}

func TestMatrixCellsDeterministicOrder(t *testing.T) {
	m := Matrix{
		Protocols:     []Protocol{GLR, Epidemic},
		Mobilities:    []MobilityKind{MobilityWaypoint, MobilityStatic},
		Nodes:         []int{30, 50},
		StorageLimits: []int{0, 10},
	}.Normalized()
	cells := m.Cells()
	want := 2 * 2 * 1 * 2 * 1 * 2
	if len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	// Protocol is the innermost axis: consecutive cells differ only by
	// protocol, so regime rows compare like against like.
	for i := 0; i+1 < len(cells); i += 2 {
		a, b := cells[i], cells[i+1]
		if a.Protocol != GLR || b.Protocol != Epidemic {
			t.Fatalf("cells %d,%d protocols = %s,%s", i, i+1, a.Protocol, b.Protocol)
		}
		if a.Coordinate() != b.Coordinate() {
			t.Fatalf("cells %d,%d straddle coordinates", i, i+1)
		}
	}
	again := m.Cells()
	for i := range cells {
		if cells[i] != again[i] {
			t.Fatal("Cells enumeration is not deterministic")
		}
	}
}

func TestCellScenarioRuns(t *testing.T) {
	m := Matrix{
		Protocols: []Protocol{GLR},
		Workloads: []WorkloadKind{WorkloadPoisson},
		Nodes:     []int{10},
		Ranges:    []float64{150},
		Messages:  5,
		SimTime:   90,
		Seeds:     1,
	}.Normalized()
	cell := m.Cells()[0]
	sc, err := cell.Scenario(WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated == 0 {
		t.Fatal("cell scenario generated no messages")
	}
}

func TestCellLabel(t *testing.T) {
	cell := Cell{Protocol: GLR, Mobility: MobilityWaypoint, Workload: WorkloadPaper, Nodes: 50, Range: 100}
	if got := cell.Label(); got != "glr/waypoint/paper/n50/r100/s∞" {
		t.Fatalf("label = %q", got)
	}
	cell.StorageLimit = 10
	if got := cell.Label(); !strings.HasSuffix(got, "/s10") {
		t.Fatalf("bounded-storage label = %q", got)
	}
}

func TestKindExpansion(t *testing.T) {
	for _, k := range []MobilityKind{MobilityWaypoint, MobilityStatic, MobilityRandomWalk} {
		if _, err := k.Mobility(); err != nil {
			t.Errorf("%s: %v", k, err)
		}
	}
	if _, err := MobilityKind("teleport").Mobility(); err == nil {
		t.Error("unknown mobility kind expanded")
	}
	for _, k := range []WorkloadKind{WorkloadPaper, WorkloadUniform, WorkloadPoisson, WorkloadHotspot} {
		if _, err := k.Workload(10); err != nil {
			t.Errorf("%s: %v", k, err)
		}
	}
	if _, err := WorkloadKind("bursty").Workload(10); err == nil {
		t.Error("unknown workload kind expanded")
	}
}

// FuzzMatrix: Matrix.Validate never panics, and it accepts a small
// matrix exactly when every cell compiles via Cell.Scenario with each of
// the matrix's seeds, as the atlas driver compiles them. A selector of 0
// leaves its axis empty (defaulted); an unparsable fault slug is not a
// matrix.
func FuzzMatrix(f *testing.F) {
	inf, nan := math.Inf(1), math.NaN()
	type input struct {
		proto, mob, work uint8
		nodes            int
		rangeM           float64
		storage          int
		faults           string
		messages         int
		simTime          float64
		seeds            int
		baseSeed         int64
		interval         float64
		copies           int
		spanner          string
		noFace, noHyst   bool
	}
	for _, in := range []input{
		{},
		{proto: 3, mob: 3, work: 3, nodes: 10, rangeM: 150, messages: 20, simTime: 90, seeds: 2, baseSeed: 7},
		{proto: 1, mob: 2, work: 4, nodes: 8, storage: 5, faults: "churn(rate=0.002,dur=30)+gps-noise(sigma=50)", messages: 10, seeds: 1},
		{faults: "region-blackout(x=2000,y=0,w=100,h=100,start=0,end=50)", messages: 10, seeds: 1},
		{work: 3, messages: 200, simTime: 201, seeds: 5},
		{proto: 5, messages: 10, seeds: 1},
		{mob: 4, messages: 10, seeds: 1},
		{work: 5, messages: 10, seeds: 1},
		{nodes: 1, messages: 10, seeds: 1},
		{rangeM: 1e308, messages: 10, seeds: 1},
		{rangeM: nan, messages: 10, seeds: 1},
		{simTime: inf, messages: 10, seeds: 1},
		{storage: -2, messages: 10, seeds: 1},
		{messages: -1, seeds: 1},
		{messages: 10, seeds: -1},
		{proto: 3, messages: 10, seeds: 1, interval: 0.5, copies: 2, spanner: "gabriel", noFace: true, noHyst: true},
		{proto: 2, messages: 10, seeds: 1, spanner: "voronoi"},
		{proto: 3, messages: 10, seeds: 1, interval: -0.5},
		{proto: 1, messages: 10, seeds: 1, copies: -1},
		{proto: 1, messages: 10, seeds: 1, interval: nan, spanner: "udg"},
	} {
		f.Add(in.proto, in.mob, in.work, in.nodes, in.rangeM, in.storage, in.faults, in.messages, in.simTime, in.seeds, in.baseSeed,
			in.interval, in.copies, in.spanner, in.noFace, in.noHyst)
	}
	f.Fuzz(func(t *testing.T, proto, mob, work uint8, nodes int, rangeM float64, storage int,
		faults string, messages int, simTime float64, seeds int, baseSeed int64,
		interval float64, copies int, spanner string, noFace, noHyst bool) {
		if messages > 2000 || seeds > 5 {
			return // not small: Validate compiles every cell for every seed
		}
		fs, err := ParseFaults(faults)
		if err != nil {
			return
		}
		m := Matrix{
			Protocols:  [][]Protocol{nil, {GLR}, {Epidemic}, {GLR, Epidemic}, {""}, {"carrier-pigeon"}}[int(proto)%6],
			Mobilities: [][]MobilityKind{nil, {MobilityWaypoint}, {MobilityStatic}, {MobilityRandomWalk}, {"teleport"}}[int(mob)%5],
			Workloads: [][]WorkloadKind{nil, {WorkloadPaper}, {WorkloadUniform}, {WorkloadPoisson},
				{WorkloadHotspot}, {"bursty"}}[int(work)%6],
			Messages: messages,
			SimTime:  simTime,
			Seeds:    seeds,
			BaseSeed: baseSeed,
		}
		if nodes != 0 {
			m.Nodes = []int{nodes}
		}
		if rangeM != 0 {
			m.Ranges = []float64{rangeM}
		}
		if storage != 0 {
			m.StorageLimits = []int{storage}
		}
		if len(fs) > 0 {
			m.Faults = [][]Fault{fs}
		}
		g := GLRConfig{CheckInterval: interval, Copies: copies, Spanner: spanner,
			DisableFaceRouting: noFace, DisableHysteresis: noHyst}
		if g != (GLRConfig{}) {
			m.GLR = []GLRConfig{{}, g}
		}
		got := m.Validate()
		knownSpanner := map[string]bool{"": true, "ldtg": true, "gabriel": true, "udg": true}[spanner]
		if got == nil && (!knownSpanner || interval < 0 || copies < 0) {
			t.Fatalf("Validate accepted GLR configuration %+v", g)
		}
		n := m.Normalized()
		// A GLR configuration must be valid even where only epidemic
		// cells would run it.
		_, err = NewScenario(WithGLR(g))
		compiles := n.Seeds >= 1 && err == nil
		for _, c := range n.Cells() {
			for r := 0; compiles && r < n.Seeds; r++ {
				_, err := c.Scenario(WithSeed(n.BaseSeed + int64(r)))
				compiles = err == nil
			}
		}
		if (got == nil) != compiles {
			t.Fatalf("Validate = %v, but every cell compiles = %v (matrix %+v)", got, compiles, n)
		}
	})
}

// TestMatrixGLRAxis: GLR cells carry their non-default configuration,
// epidemic cells and default GLR cells carry none (so they serialize as
// before the axis existed), and the axis shows in Axes and Label only
// where it is set.
func TestMatrixGLRAxis(t *testing.T) {
	m := Matrix{
		GLR:      []GLRConfig{{}, {Spanner: "gabriel", DisableHysteresis: true}},
		Messages: 20,
		Seeds:    1,
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	axes := m.Axes()
	last := axes[len(axes)-1]
	if want := []string{"default", "spanner=gabriel,nohysteresis"}; last.Name != "glr" || !reflect.DeepEqual(last.Values, want) {
		t.Errorf("last axis %+v, want glr %v", last, want)
	}
	for _, ax := range (Matrix{}).Axes() {
		if ax.Name == "glr" {
			t.Error("a matrix without a GLR axis lists one")
		}
	}

	cells := m.Cells()
	if len(cells) != 4 { // 2 configurations × 2 protocols
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	plain := (Matrix{Messages: 20}).Cells()
	for _, at := range [][2]int{{0, 0}, {1, 1}, {3, 1}} { // cell, plain cell
		c := cells[at[0]]
		if c.GLR != nil || c != plain[at[1]] {
			t.Errorf("cell %s differs from the same cell without the axis", c.Label())
		}
	}
	tuned := cells[2]
	if tuned.Protocol != GLR || tuned.GLR == nil || *tuned.GLR != m.GLR[1] {
		t.Fatalf("tuned cell %+v", tuned)
	}
	if l := tuned.Label(); !strings.HasSuffix(l, "/spanner=gabriel,nohysteresis") {
		t.Errorf("tuned label %q lacks the configuration", l)
	}
	if tuned.Coordinate() != cells[3].Coordinate() {
		t.Error("a GLR variant and epidemic at one coordinate have different coordinates")
	}

	for _, bad := range []GLRConfig{{Spanner: "voronoi"}, {CheckInterval: -1}, {Copies: -1}} {
		if err := (Matrix{Protocols: []Protocol{Epidemic}, GLR: []GLRConfig{bad}}).Validate(); err == nil {
			t.Errorf("GLR configuration %+v accepted", bad)
		}
	}
}
