package sim_test

import (
	"testing"

	"glr/internal/core"
	"glr/internal/epidemic"
	"glr/internal/fault"
	"glr/internal/metrics"
	"glr/internal/mobility"
	"glr/internal/sim"
)

// TestGenerationBoxPoisonOracle runs a GLR world and an epidemic world
// twice each: once as is, and once with the world overwriting its one
// generation box with poison after every OnMessageGenerated call. Both
// protocols copy the message into their stores during the call, so the
// reports must be identical; a protocol that kept the box would route,
// count or deliver poison in the second run.
func TestGenerationBoxPoisonOracle(t *testing.T) {
	s := sim.DefaultScenario(100)
	s.Seed = 5
	s.N = 40
	s.SimTime = 240
	s.Region = mobility.Region{W: 1200, H: 300}
	s.Traffic = sim.UniformTraffic(s.N, 120, 1, 5*977+3)
	s.Faults = []fault.Spec{{Kind: fault.Churn, Rate: 0.01, Duration: 20}}
	for _, tc := range []struct {
		name    string
		factory func() (sim.ProtocolFactory, error)
	}{
		{"glr", func() (sim.ProtocolFactory, error) { return core.New(core.DefaultConfig()) }},
		{"epidemic", func() (sim.ProtocolFactory, error) { return epidemic.New(epidemic.DefaultConfig()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(poison bool) (metrics.Report, int) {
				factory, err := tc.factory()
				if err != nil {
					t.Fatal(err)
				}
				w, err := sim.NewWorld(s, factory)
				if err != nil {
					t.Fatal(err)
				}
				poisoned := 0
				if poison {
					w.PoisonGenerated(func() { poisoned++ })
				}
				return w.Run(), poisoned
			}
			plain, _ := run(false)
			poisonedRep, poisoned := run(true)
			if plain != poisonedRep {
				t.Fatalf("reports differ:\n  plain:    %+v\n  poisoned: %+v", plain, poisonedRep)
			}
			if poisoned != plain.Generated || plain.Delivered == 0 {
				t.Fatalf("%d boxes poisoned for %d generated messages, %d delivered", poisoned, plain.Generated, plain.Delivered)
			}
		})
	}
}
