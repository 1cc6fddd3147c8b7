package core

import (
	"testing"

	"glr/internal/mobility"
	"glr/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"check interval", func(c *Config) { c.CheckInterval = 0 }},
		{"copies negative", func(c *Config) { c.Copies = -1 }},
		{"copies too many", func(c *Config) { c.Copies = 6 }},
		{"stale threshold", func(c *Config) { c.StaleRelocateAfter = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if cfg.Validate() == nil {
				t.Error("expected validation error")
			}
		})
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New must validate")
	}
}

// buildWorld wires a GLR world or fails the test.
func buildWorld(t *testing.T, s sim.Scenario, cfg Config) *sim.World {
	t.Helper()
	factory, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sim.NewWorld(s, factory)
	if err != nil {
		t.Fatal(err)
	}
	return w
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

func TestGLRDeliversDenseMobile(t *testing.T) {
	w := buildWorld(t, denseScenario(2), DefaultConfig())
	r := w.Run()
	if r.Delivered != r.Generated {
		t.Fatalf("delivered %d/%d: %+v", r.Delivered, r.Generated, r)
	}
	if r.AvgLatency <= 0 || r.AvgLatency > 60 {
		t.Errorf("suspicious latency %v", r.AvgLatency)
	}
	if r.Acks == 0 {
		t.Error("custody acks expected")
	}
}

func TestGLRDeliversDenseStatic(t *testing.T) {
	// Static connected topology: greedy + face on the LDTG must deliver
	// multi-hop without any mobility assist.
	s := denseScenario(5)
	s.Mobility = sim.MobilityStatic
	s.Range = 220
	s.N = 25
	s.Region = mobility.Region{W: 900, H: 300}
	s.Traffic = []sim.TrafficItem{
		{Src: 0, Dst: 24, At: 5},
		{Src: 24, Dst: 0, At: 6},
		{Src: 5, Dst: 20, At: 7},
	}
	w := buildWorld(t, s, DefaultConfig())
	r := w.Run()
	if r.Delivered < 2 { // static UDG may be disconnected for a pair
		t.Fatalf("delivered %d/%d on static topology", r.Delivered, r.Generated)
	}
}

func TestGLRStoreAndForwardAcrossPartition(t *testing.T) {
	// Sparse mobile network: 50 m range in a 1500×300 strip is far below
	// the connectivity threshold; delivery requires store-carry-forward.
	s := sim.DefaultScenario(50)
	s.Seed = 3
	s.N = 40
	s.SimTime = 1500
	s.Traffic = []sim.TrafficItem{
		{Src: 0, Dst: 30, At: 10},
		{Src: 5, Dst: 35, At: 20},
		{Src: 12, Dst: 22, At: 30},
		{Src: 33, Dst: 2, At: 40},
	}
	w := buildWorld(t, s, DefaultConfig())
	r := w.Run()
	if r.Delivered < 3 {
		t.Fatalf("store-and-forward delivered only %d/%d", r.Delivered, r.Generated)
	}
	if r.AvgLatency < 1 {
		t.Errorf("latency %v implausibly low for a partitioned network", r.AvgLatency)
	}
}

// buildProbedWorld wires a GLR world and returns the per-node protocol
// instances for white-box assertions.
func buildProbedWorld(t *testing.T, s sim.Scenario, cfg Config) (*sim.World, []*GLR) {
	t.Helper()
	factory, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var instances []*GLR
	wrapped := func(n *sim.Node) sim.Protocol {
		p := factory(n)
		instances = append(instances, p.(*GLR))
		return p
	}
	w, err := sim.NewWorld(s, wrapped)
	if err != nil {
		t.Fatal(err)
	}
	return w, instances
}

func TestGLRCopyCountRule(t *testing.T) {
	// Algorithm 1 on the paper's strip: threshold ≈ 133 m ⇒ 1 copy at
	// 150–250 m, 3 copies at 50–100 m.
	tests := []struct {
		rng  float64
		want int
	}{
		{250, 1}, {200, 1}, {150, 1}, {100, 3}, {50, 3}, {20, 5},
	}
	for _, tt := range tests {
		s := sim.DefaultScenario(tt.rng)
		s.N = 50
		s.SimTime = 10
		_, instances := buildProbedWorld(t, s, DefaultConfig())
		if got := instances[0].CopyCount(); got != tt.want {
			t.Errorf("range %.0f m: copies = %d, want %d", tt.rng, got, tt.want)
		}
	}
	// Forced copies override the rule.
	cfg := DefaultConfig()
	cfg.Copies = 2
	s := sim.DefaultScenario(50)
	s.SimTime = 10
	_, instances := buildProbedWorld(t, s, cfg)
	if got := instances[0].CopyCount(); got != 2 {
		t.Errorf("forced copies = %d, want 2", got)
	}
}
