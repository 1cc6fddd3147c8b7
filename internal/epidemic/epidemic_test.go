package epidemic

import (
	"testing"

	"glr/internal/mobility"
	"glr/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.ExchangeInterval = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New must validate")
	}
}

// buildWorld wires an epidemic world and returns per-node instances.
func buildWorld(t *testing.T, s sim.Scenario) (*sim.World, []*Epidemic) {
	t.Helper()
	factory, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var instances []*Epidemic
	wrapped := func(n *sim.Node) sim.Protocol {
		p := factory(n)
		instances = append(instances, p.(*Epidemic))
		return p
	}
	w, err := sim.NewWorld(s, wrapped)
	if err != nil {
		t.Fatal(err)
	}
	return w, instances
}

func denseScenario(seed int64) sim.Scenario {
	s := sim.DefaultScenario(250)
	s.Seed = seed
	s.N = 15
	s.SimTime = 120
	s.Region = mobility.Region{W: 600, H: 300}
	s.Traffic = []sim.TrafficItem{
		{Src: 0, Dst: 9, At: 5},
		{Src: 3, Dst: 12, At: 6},
		{Src: 7, Dst: 1, At: 7},
	}
	return s
}

func TestEpidemicDeliversDense(t *testing.T) {
	w, _ := buildWorld(t, denseScenario(1))
	r := w.Run()
	if r.Delivered != r.Generated {
		t.Fatalf("delivered %d/%d", r.Delivered, r.Generated)
	}
	if r.ControlFrames == 0 {
		t.Error("summary vectors should be counted as control frames")
	}
}

func TestEpidemicDeliversAcrossPartition(t *testing.T) {
	// 50 m range in the strip: only mobility-assisted epidemic spread
	// can deliver.
	s := sim.DefaultScenario(50)
	s.Seed = 2
	s.N = 40
	s.SimTime = 1500
	s.Traffic = []sim.TrafficItem{
		{Src: 0, Dst: 30, At: 10},
		{Src: 5, Dst: 35, At: 20},
		{Src: 12, Dst: 22, At: 30},
	}
	w, _ := buildWorld(t, s)
	r := w.Run()
	if r.Delivered < 2 {
		t.Fatalf("epidemic delivered only %d/%d across partitions", r.Delivered, r.Generated)
	}
}

func TestEpidemicMessagesNeverCleared(t *testing.T) {
	// After delivery, copies stay in buffers (the paper's core criticism
	// of epidemic routing).
	s := denseScenario(3)
	w, instances := buildWorld(t, s)
	r := w.Run()
	if r.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	held := 0
	for _, e := range instances {
		held += e.Buffer().Len()
	}
	if held < r.Generated*5 {
		t.Errorf("messages should replicate widely and never clear; only %d copies held", held)
	}
}

func TestEpidemicBufferLimitEnforced(t *testing.T) {
	s := denseScenario(4)
	s.StorageLimit = 2
	s.Traffic = sim.PaperTraffic(40)
	for i := range s.Traffic {
		s.Traffic[i].Src %= 15
		s.Traffic[i].Dst %= 15
		if s.Traffic[i].Src == s.Traffic[i].Dst {
			s.Traffic[i].Dst = (s.Traffic[i].Dst + 1) % 15
		}
	}
	w, instances := buildWorld(t, s)
	r := w.Run()
	for i, e := range instances {
		if e.Buffer().Len() > 2 {
			t.Errorf("node %d holds %d > limit 2", i, e.Buffer().Len())
		}
	}
	if r.MaxPeakStorage > 2 {
		t.Errorf("peak storage %d exceeds limit", r.MaxPeakStorage)
	}
}

func TestEpidemicDuplicateDeliveryCountedOnce(t *testing.T) {
	s := denseScenario(5)
	s.Traffic = []sim.TrafficItem{{Src: 0, Dst: 9, At: 5}}
	w, _ := buildWorld(t, s)
	r := w.Run()
	if r.Delivered != 1 {
		t.Fatalf("delivered = %d, want 1", r.Delivered)
	}
}

func TestEpidemicDeterministic(t *testing.T) {
	run := func() any {
		w, _ := buildWorld(t, denseScenario(6))
		return w.Run()
	}
	if run() != run() {
		t.Error("identical seeds must give identical reports")
	}
}

func TestEpidemicStorageGrowsWithMessages(t *testing.T) {
	// Epidemic's storage footprint tracks the number of messages in
	// transit — the mechanism behind Figure 7 and the storage tables.
	peak := func(msgs int) int {
		s := denseScenario(7)
		s.SimTime = 200
		s.Traffic = sim.PaperTraffic(msgs)
		for i := range s.Traffic {
			s.Traffic[i].Src %= 15
			s.Traffic[i].Dst %= 15
			if s.Traffic[i].Src == s.Traffic[i].Dst {
				s.Traffic[i].Dst = (s.Traffic[i].Dst + 1) % 15
			}
		}
		w, _ := buildWorld(t, s)
		return w.Run().MaxPeakStorage
	}
	lo, hi := peak(10), peak(80)
	if hi <= lo {
		t.Errorf("peak storage should grow with traffic: %d vs %d", lo, hi)
	}
}
