package core

import (
	"fmt"
	"reflect"
	"testing"

	"glr/internal/ldt"
	"glr/internal/metrics"
	"glr/internal/sim"
)

// TestRunRepeatEquivalence: across randomized mobile scenarios and all
// three spanner variants, running the same scenario twice must produce
// identical reports and identical spanner counters. Every input
// of a run — mobility, beacon phases, MAC backoff, route-check phases,
// traffic — is drawn from seeded streams, so any divergence means some
// layer reads state that is not a function of the scenario (map
// iteration order, wall clock, a shared global).
func TestRunRepeatEquivalence(t *testing.T) {
	const trials = 12
	delivered := 0
	for trial := 0; trial < trials; trial++ {
		t.Run(fmt.Sprintf("seed=%d", trial), func(t *testing.T) {
			run := func() (metrics.Report, ldt.SpannerStats) {
				factory, maint, err := NewInstrumented(equivConfig(trial))
				if err != nil {
					t.Fatal(err)
				}
				w, err := sim.NewWorld(equivScenario(trial), factory)
				if err != nil {
					t.Fatal(err)
				}
				rep := w.Run()
				st := maint.Stats()
				st.BuildTime = 0 // wall clock, not simulation state
				return rep, st
			}
			rep1, st1 := run()
			rep2, st2 := run()
			if !reflect.DeepEqual(rep1, rep2) {
				t.Fatalf("repeated run diverged:\n  first:  %+v\n  second: %+v", rep1, rep2)
			}
			if st1 != st2 {
				t.Fatalf("spanner activity diverged:\n  first:  %+v\n  second: %+v", st1, st2)
			}
			delivered += rep1.Delivered
		})
	}
	if delivered == 0 {
		t.Fatal("repeat suite delivered nothing; scenarios too hostile to be meaningful")
	}
}
