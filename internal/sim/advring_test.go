package sim_test

import (
	"reflect"
	"testing"

	"glr/internal/core"
	"glr/internal/dtn"
	"glr/internal/fault"
	"glr/internal/geom"
	"glr/internal/metrics"
	"glr/internal/mobility"
	"glr/internal/sim"
)

// TestAdvertRingPoisonOracle runs a GLR world with churn and GPS noise
// twice: once with every node's ring reusing its advertised lists, and
// once poisoning each list its ring would reuse and taking a fresh array
// instead. GLR's route checks read every row's list through AppendTwoHop,
// so a row still reading a list after its slot came round reads poison
// in the second run, and the reports or the final two-hop views part.
func TestAdvertRingPoisonOracle(t *testing.T) {
	s := sim.DefaultScenario(100)
	s.Seed = 7
	s.N = 40
	s.SimTime = 240
	s.Region = mobility.Region{W: 1200, H: 300}
	s.Traffic = sim.UniformTraffic(s.N, 120, 1, 7*977+3)
	s.Faults = []fault.Spec{
		{Kind: fault.Churn, Rate: 0.02, Duration: 20},
		{Kind: fault.GPSNoise, Sigma: 10},
	}
	type run struct {
		report metrics.Report
		ids    [][]int
		pts    [][]geom.Point
	}
	poisoned := 0
	do := func(poison bool) run {
		factory, err := core.New(core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		w, err := sim.NewWorld(s, factory)
		if err != nil {
			t.Fatal(err)
		}
		if poison {
			w.PoisonAdverts(func() { poisoned++ })
		}
		out := run{report: w.Run()}
		var seen dtn.IDMarks
		for i := range s.N {
			n := w.Node(i)
			ids, pts := n.Neighbors().AppendTwoHop(nil, nil, i, n.Pos(), &seen)
			out.ids = append(out.ids, ids)
			out.pts = append(out.pts, pts)
		}
		return out
	}
	reuse := do(false)
	oracle := do(true)
	if !reflect.DeepEqual(reuse.report, oracle.report) {
		t.Fatalf("reports differ:\n  reusing: %+v\n  poison:  %+v", reuse.report, oracle.report)
	}
	for i := range reuse.ids {
		if !reflect.DeepEqual(reuse.ids[i], oracle.ids[i]) || !reflect.DeepEqual(reuse.pts[i], oracle.pts[i]) {
			t.Fatalf("node %d's final two-hop view differs:\n  reusing: %v %v\n  poison:  %v %v",
				i, reuse.ids[i], reuse.pts[i], oracle.ids[i], oracle.pts[i])
		}
	}
	if poisoned == 0 || reuse.report.Delivered == 0 {
		t.Fatalf("world too idle to test the ring: %d lists poisoned, %d delivered", poisoned, reuse.report.Delivered)
	}
}
