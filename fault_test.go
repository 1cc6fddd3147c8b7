package glr

import (
	"encoding/json"
	"fmt"
	"math"
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

// runFaulted runs a small faulted scenario under the given engine and
// parallelism and returns its result.
func runFaulted(t *testing.T, seed int64, engine Engine, parallelism int, faults []Fault) Result {
	t.Helper()
	opts := []Option{
		WithNodes(30),
		WithWorkload(UniformWorkload{Messages: 40}),
		WithSimTime(150),
		WithSeed(seed),
		WithEngine(engine),
		WithParallelism(parallelism),
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

// TestFaultedRunEquivalence: a faulted run must produce identical
// results on the serial engine and at every shard count — the fault
// schedule is a pure function of (fault set, seed), never of the
// execution strategy.
func TestFaultedRunEquivalence(t *testing.T) {
	faults := faultTestSet()
	base := runFaulted(t, 7, Engine{}, 0, faults)
	if base.Delivered == 0 {
		t.Fatal("faulted baseline delivered nothing; scenario too hostile to be meaningful")
	}

	if got := runFaulted(t, 7, Engine{DisableSharding: true}, 0, faults); !reflect.DeepEqual(base, got) {
		t.Errorf("serial engine diverged:\n  base: %+v\n  got:  %+v", base, got)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		if got := runFaulted(t, 7, Engine{}, workers, faults); !reflect.DeepEqual(base, got) {
			t.Errorf("parallelism=%d diverged:\n  base: %+v\n  got:  %+v", workers, base, got)
		}
	}
	// All-zero thresholds force every parallel plane — reception
	// verdicts, batched beacons, the bulk reindex, anti-entropy diffs —
	// to fork on every batch, however small, crossing the fault schedule
	// with maximal parallel coverage.
	forceFork := &ForkThresholds{}
	for _, workers := range []int{2, 8} {
		if got := runFaulted(t, 7, Engine{ForkThresholds: forceFork}, workers, faults); !reflect.DeepEqual(base, got) {
			t.Errorf("parallelism=%d fork-always diverged:\n  base: %+v\n  got:  %+v", workers, base, got)
		}
	}
}

// TestForkThresholdEquivalence is the pathological-threshold property
// test: pinning the per-plane fork thresholds to the extremes — 0
// (every batch forks, even singletons) and math.MaxInt (nothing ever
// forks, the pool idles) — must leave a faulted run's result
// byte-identical to the auto-calibrated default, for both protocols
// and across worker counts. Thresholds gate only where work executes,
// never what it computes.
func TestForkThresholdEquivalence(t *testing.T) {
	faults := faultTestSet()
	run := func(p Protocol, ft *ForkThresholds, workers int) Result {
		t.Helper()
		s, err := NewScenario(
			WithProtocol(p),
			WithNodes(30),
			WithWorkload(UniformWorkload{Messages: 40}),
			WithSimTime(150),
			WithSeed(11),
			WithEngine(Engine{ForkThresholds: ft}),
			WithParallelism(workers),
			WithFaults(faults...),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	never := &ForkThresholds{RxMin: math.MaxInt, BeaconMin: math.MaxInt,
		MobilityMin: math.MaxInt, DiffMin: math.MaxInt}
	for _, p := range []Protocol{GLR, Epidemic} {
		base := run(p, nil, 0)
		if base.Delivered == 0 {
			t.Fatalf("%s: baseline delivered nothing; the property test is vacuous", p)
		}
		for _, workers := range []int{2, 8} {
			for name, ft := range map[string]*ForkThresholds{
				"fork-always": {},
				"fork-never":  never,
			} {
				if got := run(p, ft, workers); !reflect.DeepEqual(base, got) {
					t.Errorf("%s parallelism=%d %s diverged:\n  base: %+v\n  got:  %+v",
						p, workers, name, base, got)
				}
			}
		}
	}
}

// TestForkThresholdValidation: negative thresholds are rejected at
// scenario construction.
func TestForkThresholdValidation(t *testing.T) {
	for _, ft := range []ForkThresholds{
		{RxMin: -1}, {BeaconMin: -1}, {MobilityMin: -2}, {DiffMin: -3},
	} {
		ft := ft
		if _, err := NewScenario(WithEngine(Engine{ForkThresholds: &ft})); err == nil {
			t.Errorf("negative thresholds %+v accepted", ft)
		}
	}
	if _, err := NewScenario(WithEngine(Engine{ForkThresholds: &ForkThresholds{}})); err != nil {
		t.Errorf("zero thresholds rejected: %v", err)
	}
}

// TestZeroFaultsByteIdentity: building a scenario with an empty
// WithFaults (or none at all) must leave every engine's results
// byte-identical — the fault subsystem may not perturb a fault-free
// run, not even by consuming an RNG draw or an event sequence number.
func TestZeroFaultsByteIdentity(t *testing.T) {
	engines := []Engine{{}, {DisableSharding: true}}
	for i, e := range engines {
		plain := runFaulted(t, 3, e, 0, nil)
		empty := runFaulted(t, 3, e, 0, []Fault{})
		if !reflect.DeepEqual(plain, empty) {
			t.Errorf("engine %d: empty WithFaults diverged from no faults:\n  plain: %+v\n  empty: %+v",
				i, plain, empty)
		}
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
	res := runFaulted(t, 1, Engine{}, 0, nil)
	faulted := runFaulted(t, 1, Engine{}, 0, []Fault{
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
