package core

import (
	"math/bits"
	"testing"

	"glr/internal/ldt"
	"glr/internal/sim"
)

func TestSpannerVariantsDeliver(t *testing.T) {
	// Every routing-graph variant must still deliver in a dense mobile
	// network — the ablation changes efficiency, not correctness.
	for _, v := range []struct {
		name    string
		spanner ldt.Variant
	}{{"ldtg", ldt.VariantLDTG}, {"gabriel", ldt.VariantGabriel}, {"udg", ldt.VariantUDG}} {
		t.Run(v.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Spanner = v.spanner
			w := buildWorld(t, denseScenario(21), cfg)
			r := w.Run()
			if r.Delivered != r.Generated {
				t.Errorf("%s delivered %d/%d", v.name, r.Delivered, r.Generated)
			}
		})
	}
}

func TestNoFaceRoutingStillDeliversWithMobility(t *testing.T) {
	// Without face routing, local minima wait for mobility; in a mobile
	// network delivery must still happen (slower is fine).
	cfg := DefaultConfig()
	cfg.DisableFaceRouting = true
	s := sim.DefaultScenario(100)
	s.Seed = 22
	s.N = 30
	s.SimTime = 600
	s.Traffic = []sim.TrafficItem{
		{Src: 0, Dst: 20, At: 5},
		{Src: 3, Dst: 25, At: 6},
		{Src: 9, Dst: 15, At: 7},
	}
	w, instances := buildProbedWorld(t, s, cfg)
	r := w.Run()
	if r.Delivered < 2 {
		t.Fatalf("delivered %d/%d without face routing", r.Delivered, r.Generated)
	}
	for _, g := range instances {
		if st := g.Stats(); st.FaceForwards != 0 || st.FaceFailures != 0 {
			t.Fatal("face routing ran despite being disabled")
		}
	}
}

func TestStatsCountersPopulated(t *testing.T) {
	s := sim.DefaultScenario(100)
	s.Seed = 23
	s.N = 30
	s.SimTime = 500
	s.Traffic = sim.PaperTraffic(60)
	for i := range s.Traffic {
		s.Traffic[i].Src %= 30
		s.Traffic[i].Dst %= 30
		if s.Traffic[i].Src == s.Traffic[i].Dst {
			s.Traffic[i].Dst = (s.Traffic[i].Dst + 1) % 30
		}
	}
	w, instances := buildProbedWorld(t, s, DefaultConfig())
	w.Run()
	var agg Stats
	for _, g := range instances {
		st := g.Stats()
		agg.GreedyForwards += st.GreedyForwards
		agg.DirectForwards += st.DirectForwards
		agg.FaceForwards += st.FaceForwards
	}
	if agg.GreedyForwards == 0 {
		t.Error("greedy forwards should occur")
	}
	if agg.DirectForwards == 0 {
		t.Error("direct deliveries should occur")
	}
}

func TestHysteresisReducesHops(t *testing.T) {
	// The hysteresis exists to stop custody ping-pong between jostling
	// pairs; with it off, delivered messages should take at least as
	// many hops on average.
	run := func(h float64) float64 {
		cfg := DefaultConfig()
		cfg.ProgressHysteresis = h
		s := sim.DefaultScenario(50)
		s.Seed = 24
		s.N = 40
		s.SimTime = 900
		s.Traffic = sim.PaperTraffic(80)
		for i := range s.Traffic {
			s.Traffic[i].Src %= 40
			s.Traffic[i].Dst %= 40
			if s.Traffic[i].Src == s.Traffic[i].Dst {
				s.Traffic[i].Dst = (s.Traffic[i].Dst + 1) % 40
			}
		}
		w := buildWorld(t, s, cfg)
		return w.Run().AvgHops
	}
	with := run(0.2)
	without := run(0)
	if without < with*0.8 {
		t.Errorf("hops without hysteresis (%.1f) unexpectedly below with (%.1f)", without, with)
	}
}

func TestFiveCopiesUseExtraMidTrees(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Copies = 5
	s := sim.DefaultScenario(50)
	s.N = 50
	s.SimTime = 10
	s.Traffic = []sim.TrafficItem{{Src: 0, Dst: 30, At: 1}}
	w, instances := buildProbedWorld(t, s, cfg)
	w.Scheduler().Run(1.01)
	msgs := instances[0].store.AppendStored(nil)
	if len(msgs) != 1 {
		t.Fatalf("source holds %d messages", len(msgs))
	}
	if got := bits.OnesCount8(uint8(msgs[0].Flags)); got != 5 {
		t.Errorf("flag count = %d, want 5", got)
	}
	_ = w
}
