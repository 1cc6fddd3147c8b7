package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"glr/internal/metrics"
	"glr/internal/shard"
	"glr/internal/sim"
)

// TestShardedRunEquivalence: across randomized mobile scenarios, a run on
// the sharded engine — parallel reception verdicts plus speculative
// spanner builds — must produce *identical* end-to-end results to the
// serial engine at every worker count. Parallelism is forced (2/4/8)
// rather than automatic so the property holds on single-CPU CI hosts
// too. Any divergence means a worker observed or influenced simulation
// state outside the byte-identity discipline.
func TestShardedRunEquivalence(t *testing.T) {
	const trials = 12
	delivered := 0
	specBuilds := uint64(0)
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("seed=%d", trial), func(t *testing.T) {
			run := func(parallelism int, disable bool) metrics.Report {
				factory, maint, err := NewInstrumented(equivConfig(trial))
				if err != nil {
					t.Fatal(err)
				}
				s := equivScenario(trial)
				s.Parallelism = parallelism
				s.DisableSharding = disable
				w, err := sim.NewWorld(s, factory)
				if err != nil {
					t.Fatal(err)
				}
				rep := w.Run()
				specBuilds += maint.Stats().SpecBuilds
				return rep
			}
			serial := run(0, true)
			delivered += serial.Delivered
			for _, workers := range []int{2, 4, 8} {
				sharded := run(workers, false)
				if !reflect.DeepEqual(serial, sharded) {
					t.Fatalf("parallelism=%d diverged from serial:\n  serial:  %+v\n  sharded: %+v",
						workers, serial, sharded)
				}
			}
		})
	}
	if delivered == 0 {
		t.Fatal("equivalence suite delivered nothing; scenarios too hostile to be meaningful")
	}
	if specBuilds == 0 {
		t.Fatal("no sharded run launched a speculative spanner build; the engine never engaged")
	}
}

// TestShardedFullStackEquivalence crosses the sharded engine with the
// fork-threshold extremes — calibrated, 0 (every batch forks), and
// math.MaxInt (nothing forks) — on the full GLR stack: every variant
// must reproduce the serial run bit for bit.
func TestShardedFullStackEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack engine cross is slow")
	}
	run := func(serial bool, thr *shard.Thresholds) metrics.Report {
		factory, _, err := NewInstrumented(equivConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		s := equivScenario(2)
		s.DisableSharding = serial
		s.Parallelism = 4 // force workers; auto may resolve serial on 1-CPU hosts
		s.ForkThresholds = thr
		w, err := sim.NewWorld(s, factory)
		if err != nil {
			t.Fatal(err)
		}
		return w.Run()
	}
	serial := run(true, nil)
	never := &shard.Thresholds{RxMin: math.MaxInt, BeaconMin: math.MaxInt, MobilityMin: math.MaxInt, DiffMin: math.MaxInt}
	for name, thr := range map[string]*shard.Thresholds{"calibrated": nil, "fork-always": {}, "fork-never": never} {
		if got := run(false, thr); !reflect.DeepEqual(serial, got) {
			t.Fatalf("sharded %s diverged from serial:\n  serial:  %+v\n  sharded: %+v", name, serial, got)
		}
	}
}
