package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"glr/internal/ldt"
	"glr/internal/oracle"
	"glr/internal/sim"
)

// equivScenario builds a randomized mobile scenario for the oracle
// tests: paper-style density and mobility at a small scale, random size,
// range, and traffic.
func equivScenario(trial int) sim.Scenario {
	rng := rand.New(rand.NewSource(int64(trial)*104729 + 11))
	n := 20 + rng.Intn(20)
	s := sim.DefaultScenario(80 + rng.Float64()*120)
	s.Seed = int64(trial)*31 + 5
	s.N = n
	s.Region.W = 600 + rng.Float64()*600
	s.Region.H = 200 + rng.Float64()*200
	s.SimTime = 60 + rng.Float64()*30
	s.Traffic = sim.UniformTraffic(n, 10+rng.Intn(15), 1.0, int64(trial)*977+1)
	return s
}

// equivConfig randomizes the spanner variant so the Gabriel and UDG
// ablations go through the oracle checks too.
func equivConfig(trial int) Config {
	cfg := DefaultConfig()
	cfg.Spanner = ldt.Variant(trial % 3)
	return cfg
}

// checkSpannersAgainstReference freezes a running world and compares,
// node by node, the Maintainer's accepted-neighbor list against the
// reference construction of internal/oracle over the same neighbor-table
// state: the triangulating LDTGNeighbors, or the direct Gabriel and UDG
// constructions under those ablations. Routing reads the list in order,
// so the order must match too. It returns the number of nodes compared.
func checkSpannersAgainstReference(t *testing.T, instances []*GLR, label string) int {
	t.Helper()
	compared := 0
	for _, g := range instances {
		view, nbrIDs, _ := g.localSpanner()
		if view == nil {
			continue
		}
		var local []int
		switch g.cfg.Spanner {
		case ldt.VariantGabriel:
			local = oracle.GabrielNeighbors(view)
		case ldt.VariantUDG:
			local = oracle.UDGNeighbors(view)
		default:
			var err error
			if local, err = oracle.LDTGNeighbors(view, ldt.K); err != nil {
				t.Fatal(err)
			}
		}
		want := make([]int, 0, len(local))
		for _, li := range local {
			want = append(want, view.IDs[li])
		}
		if !slices.Equal(nbrIDs, want) {
			t.Fatalf("%s node %d: maintainer %v != reference %v", label, g.n.ID(), nbrIDs, want)
		}
		compared++
	}
	return compared
}

// probedInstrumentedWorld wires a world from an instrumented factory and
// captures every node's GLR instance.
func probedInstrumentedWorld(t *testing.T, s sim.Scenario, cfg Config) (*sim.World, []*GLR, *ldt.Maintainer) {
	t.Helper()
	factory, maint, err := NewInstrumented(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var instances []*GLR
	w, err := sim.NewWorld(s, func(n *sim.Node) sim.Protocol {
		p := factory(n)
		instances = append(instances, p.(*GLR))
		return p
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, instances, maint
}

// TestSpannerCacheRunEquivalence: across ≥20 randomized mobile scenarios
// and all three spanner variants, the shared Maintainer must answer
// every node exactly as the reference triangulation-based construction
// would, at checkpoints spread over the whole run. Any divergence means
// the per-edge empty-circle tests changed a routing decision.
func TestSpannerCacheRunEquivalence(t *testing.T) {
	const trials = 21
	delivered := 0
	for trial := 0; trial < trials; trial++ {
		t.Run(fmt.Sprintf("seed=%d", trial), func(t *testing.T) {
			s := equivScenario(trial)
			w, instances, _ := probedInstrumentedWorld(t, s, equivConfig(trial))
			compared := 0
			for until := 10.0; until < s.SimTime; until += 10 {
				w.Scheduler().Run(until)
				compared += checkSpannersAgainstReference(t, instances, fmt.Sprintf("t=%.0f", until))
			}
			delivered += w.Run().Delivered
			if compared == 0 {
				t.Fatal("no node had a spanner view to compare")
			}
		})
	}
	if delivered == 0 {
		t.Fatal("equivalence suite delivered nothing; scenarios too hostile to be meaningful")
	}
}

// TestSpannerCachePerNodeEquivalence freezes running LDTG worlds at
// several checkpoints and compares, node by node, the Maintainer's
// accepted-neighbor set against the reference construction.
func TestSpannerCachePerNodeEquivalence(t *testing.T) {
	compared := 0
	for trial := 0; trial < 6; trial++ {
		w, instances, _ := probedInstrumentedWorld(t, equivScenario(trial), equivConfig(0))
		for _, until := range []float64{8, 17, 33} {
			w.Scheduler().Run(until)
			compared += checkSpannersAgainstReference(t, instances, fmt.Sprintf("trial %d t=%.0f", trial, until))
		}
	}
	if compared < 100 {
		t.Fatalf("only %d per-node comparisons ran; scenarios degenerate", compared)
	}
}

// TestSpannerCacheStaticHits: an invalid zero config is rejected before
// any Maintainer is built.
func TestSpannerCacheStaticHits(t *testing.T) {
	if _, _, err := NewInstrumented(Config{}); err == nil {
		t.Fatal("invalid zero config accepted")
	}
}

// stats sanity for ldt.Maintainer wiring: the shared Maintainer must see
// queries from many nodes of one world.
func TestMaintainerSharedAcrossNodes(t *testing.T) {
	factory, maint, err := NewInstrumented(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := equivScenario(3)
	w, err := sim.NewWorld(s, factory)
	if err != nil {
		t.Fatal(err)
	}
	w.Scheduler().Run(12)
	st := maint.Stats()
	if st.Queries < uint64(s.N) {
		t.Errorf("shared maintainer saw %d queries for %d nodes", st.Queries, s.N)
	}
	var _ ldt.SpannerStats = st
}
