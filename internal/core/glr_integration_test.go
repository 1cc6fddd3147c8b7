package core

import (
	"testing"

	"glr/internal/dtn"
	"glr/internal/mobility"
	"glr/internal/sim"
)

func TestGLRCustodyKeepsMessagesUntilAck(t *testing.T) {
	// White-box: after generation, the message must sit in the Store;
	// after forwarding it must live in the Cache until acked.
	s := denseScenario(7)
	s.Traffic = []sim.TrafficItem{{Src: 0, Dst: 9, At: 5}}
	w, instances := buildProbedWorld(t, s, DefaultConfig())
	sched := w.Scheduler()
	sched.Run(5.05) // message generated, routing not yet run
	src := instances[0]
	if src.table.total() != 1 {
		t.Fatalf("source should hold the fresh message, has %d", src.table.total())
	}
	r := w.Run()
	if r.Delivered != 1 {
		t.Fatalf("message not delivered: %+v", r)
	}
	// After delivery and acks, no node should still hold the message
	// (custody clears hop by hop; copies die at the destination).
	total := 0
	for _, g := range instances {
		total += g.table.total()
	}
	if total != 0 {
		t.Errorf("custody left %d copies behind", total)
	}
}

func TestGLRNoCustodyFireAndForget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Custody = false
	s := denseScenario(8)
	w, instances := buildProbedWorld(t, s, cfg)
	r := w.Run()
	if r.Acks != 0 {
		t.Errorf("custody disabled but %d acks were sent", r.Acks)
	}
	if r.Delivered == 0 {
		t.Error("dense network should deliver even without custody")
	}
	for i, g := range instances {
		if cached := len(g.table.cache); cached != 0 {
			t.Errorf("node %d has %d cached messages without custody", i, cached)
		}
	}
}

func TestGLRLocationRegimes(t *testing.T) {
	// All three Table-2 regimes must deliver in a dense network; the
	// none-know regime relies on diffusion and the stale-location remedy.
	for _, tt := range []struct {
		name string
		loc  LocationKnowledge
	}{
		{"all know", LocAllKnow},
		{"source knows", LocSourceKnows},
		{"none know", LocNoneKnow},
	} {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Location = tt.loc
			s := denseScenario(9)
			s.SimTime = 300
			w, _ := buildProbedWorld(t, s, cfg)
			r := w.Run()
			if r.Delivered != r.Generated {
				t.Errorf("regime %q delivered %d/%d", tt.name, r.Delivered, r.Generated)
			}
		})
	}
}

func TestGLRDeterministicRuns(t *testing.T) {
	run := func() any {
		w := buildWorld(t, denseScenario(11), DefaultConfig())
		return w.Run()
	}
	if run() != run() {
		t.Error("identical seeds must give identical reports")
	}
}

func TestGLRStorageLimitRespected(t *testing.T) {
	s := sim.DefaultScenario(50)
	s.Seed = 12
	s.N = 30
	s.SimTime = 400
	s.StorageLimit = 5
	s.Traffic = sim.PaperTraffic(200)
	for i := range s.Traffic {
		if s.Traffic[i].Src >= 30 || s.Traffic[i].Dst >= 30 {
			s.Traffic[i].Src %= 30
			s.Traffic[i].Dst = (s.Traffic[i].Dst % 30)
			if s.Traffic[i].Src == s.Traffic[i].Dst {
				s.Traffic[i].Dst = (s.Traffic[i].Dst + 1) % 30
			}
		}
	}
	w, instances := buildProbedWorld(t, s, DefaultConfig())
	// Sample occupancy as the run progresses.
	for ti := 50.0; ti < 400; ti += 50 {
		ti := ti
		w.Scheduler().At(ti, func() {
			for i, g := range instances {
				if g.table.total() > 5 {
					t.Errorf("node %d exceeds storage limit at t=%v: %d", i, ti, g.table.total())
				}
			}
		})
	}
	r := w.Run()
	if r.MaxPeakStorage > 5 {
		t.Errorf("peak storage %d exceeds limit 5", r.MaxPeakStorage)
	}
}

func TestGLRDuplicateSuppressionAtDestination(t *testing.T) {
	// With 3 copies in a sparse network, the destination may receive
	// several; the collector must count one delivery and some duplicates
	// are tolerable.
	s := sim.DefaultScenario(100)
	s.Seed = 13
	s.N = 30
	s.SimTime = 600
	s.Traffic = []sim.TrafficItem{{Src: 0, Dst: 20, At: 5}}
	w, _ := buildProbedWorld(t, s, DefaultConfig())
	r := w.Run()
	if r.Delivered > 1 {
		t.Fatalf("single logical message counted %d times", r.Delivered)
	}
}

func TestGLRHopsAccumulate(t *testing.T) {
	// In a long thin strip with moderate range, delivery needs several
	// hops; the hop metric must reflect that.
	s := sim.DefaultScenario(150)
	s.Seed = 14
	s.N = 40
	s.SimTime = 300
	s.Region = mobility.Region{W: 1500, H: 300}
	s.Traffic = []sim.TrafficItem{{Src: 0, Dst: 39, At: 5}, {Src: 1, Dst: 38, At: 6}}
	w, _ := buildProbedWorld(t, s, DefaultConfig())
	r := w.Run()
	if r.Delivered == 0 {
		t.Skip("unlucky topology: nothing delivered")
	}
	if r.AvgHops < 1 {
		t.Errorf("AvgHops = %v, want ≥ 1", r.AvgHops)
	}
}

func TestGLRTreeFlagSplitIntegrity(t *testing.T) {
	// White-box: a sparse-source message must carry the union of the
	// first three tree flags after generation.
	s := sim.DefaultScenario(50) // sparse ⇒ 3 copies
	s.N = 50
	s.SimTime = 20
	s.Traffic = []sim.TrafficItem{{Src: 0, Dst: 10, At: 1}}
	w, instances := buildProbedWorld(t, s, DefaultConfig())
	w.Scheduler().Run(1.01)
	msgs := instances[0].table.store
	if len(msgs) != 1 {
		t.Fatalf("source holds %d messages", len(msgs))
	}
	want := dtn.FlagMax | dtn.FlagMin | dtn.FlagMid
	if msgs[0].msg.Flags != want {
		t.Errorf("flags = %v, want %v", msgs[0].msg.Flags, want)
	}
	_ = w
}
