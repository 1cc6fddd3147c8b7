package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"glr/internal/core"
	"glr/internal/dtn"
	"glr/internal/epidemic"
	"glr/internal/geom"
	"glr/internal/mac"
	"glr/internal/metrics"
	"glr/internal/mobility"
	"glr/internal/sim"
)

// deliveryRec is one observed arrival, captured through metrics.Hooks so
// the test compares the full delivered-frame set — every copy, in
// arrival order — not just the aggregate counters.
type deliveryRec struct {
	id    dtn.MessageID
	at    float64
	dst   int
	hops  int
	first bool
}

// runRecord is everything a run exposes: the delivered-frame log, the
// end-to-end report, and the medium's counters.
type runRecord struct {
	log []deliveryRec
	rep metrics.Report
	mac mac.Stats
}

// traceWorld builds a randomized mobile trace world: nodes wander between
// random waypoints at random speeds, and random sources send to random
// destinations across the field.
func traceWorld(trial int) sim.Scenario {
	rng := rand.New(rand.NewSource(int64(trial)*7919 + 3))
	const (
		simTime  = 60.0
		maxSpeed = 12.0
	)
	region := mobility.Region{W: 900 + rng.Float64()*600, H: 250 + rng.Float64()*150}
	n := 40 + rng.Intn(30)
	traces := make([][]mobility.TracePoint, n)
	for i := range traces {
		p := geom.Pt(1+rng.Float64()*(region.W-2), 1+rng.Float64()*(region.H-2))
		at := 0.0
		for at < simTime+10 {
			traces[i] = append(traces[i], mobility.TracePoint{T: at, P: p})
			q := geom.Pt(1+rng.Float64()*(region.W-2), 1+rng.Float64()*(region.H-2))
			at += p.Dist(q)/(2+rng.Float64()*(maxSpeed-2)) + 0.1
			p = q
		}
		traces[i] = append(traces[i], mobility.TracePoint{T: at, P: p})
	}
	var traffic []sim.TrafficItem
	for k := 0; k < 30; k++ {
		src := rng.Intn(n)
		dst := rng.Intn(n - 1)
		if dst >= src {
			dst++
		}
		traffic = append(traffic, sim.TrafficItem{Src: src, Dst: dst, At: 1 + rng.Float64()*(simTime-10)})
	}
	return sim.Scenario{
		Seed:     int64(trial)*131 + 7,
		N:        n,
		Range:    60 + rng.Float64()*60,
		SimTime:  simTime,
		Region:   region,
		Mobility: sim.MobilityTrace,
		Traces:   traces,
		Traffic:  traffic,
	}
}

// TestTraceWorldRepeatEquivalence: a world is a pure function of its
// scenario. On randomized mobile trace worlds, running the same scenario
// twice — under GLR and under epidemic, whose anti-entropy diffs GLR
// never exercises — must deliver exactly the same frames in exactly the
// same order and produce identical reports and MAC counters.
func TestTraceWorldRepeatEquivalence(t *testing.T) {
	const trials = 6
	delivered := 0
	for trial := 0; trial < trials; trial++ {
		s := traceWorld(trial)
		t.Run(fmt.Sprintf("seed=%d", trial), func(t *testing.T) {
			run := func(epi bool) runRecord {
				var factory sim.ProtocolFactory
				var err error
				if epi {
					factory, err = epidemic.New(epidemic.DefaultConfig())
				} else {
					factory, err = core.New(core.DefaultConfig())
				}
				if err != nil {
					t.Fatal(err)
				}
				w, err := sim.NewWorld(s, factory)
				if err != nil {
					t.Fatal(err)
				}
				var r runRecord
				w.Collector().SetHooks(metrics.Hooks{
					Delivered: func(id dtn.MessageID, _, at float64, dst, hops int, first bool) {
						r.log = append(r.log, deliveryRec{id: id, at: at, dst: dst, hops: hops, first: first})
					},
				})
				r.rep = w.Run()
				r.mac = w.Medium().Stats()
				return r
			}
			for _, epi := range []bool{false, true} {
				first, second := run(epi), run(epi)
				if !reflect.DeepEqual(first, second) {
					t.Fatalf("epidemic=%v: repeated run diverged:\n  first:  %+v %+v (%d deliveries)\n  second: %+v %+v (%d deliveries)",
						epi, first.rep, first.mac, len(first.log), second.rep, second.mac, len(second.log))
				}
				delivered += first.rep.Delivered
			}
		})
	}
	if delivered == 0 {
		t.Fatal("repeat suite delivered nothing; the property test is vacuous")
	}
}
