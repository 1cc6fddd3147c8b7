package mac

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"glr/internal/des"
	"glr/internal/geom"
)

// recvRecord identifies one successful reception: which radio got which
// frame (frames carry a unique payload tag) at which simulated time.
type recvRecord struct {
	at      des.Time
	radio   int
	src     int
	payload int
}

// equivMedium is one of the two media under comparison, with its own
// scheduler and delivery log.
type equivMedium struct {
	sched  *des.Scheduler
	medium *Medium
	log    []recvRecord
}

// buildEquivMedium wires n radios with the given position functions onto
// a fresh medium — grid-indexed, or the naive full-scan reference. pos
// functions take the medium's own clock so moving topologies evolve
// identically on both sides.
func buildEquivMedium(t *testing.T, cfg Config, naive bool, n int, pos func(id int, now des.Time) geom.Point, seed int64) *equivMedium {
	t.Helper()
	sched := des.NewScheduler()
	newMedium := NewMedium
	if naive {
		newMedium = newNaiveMedium
	}
	m, err := newMedium(sched, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	em := &equivMedium{sched: sched, medium: m}
	for i := 0; i < n; i++ {
		i := i
		_, err := m.AddRadio(i,
			func() geom.Point { return pos(i, sched.Now()) },
			func(f *Frame) {
				em.log = append(em.log, recvRecord{
					at: sched.Now(), radio: i, src: f.Src, payload: f.Payload.(int),
				})
			},
			nil,
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	return em
}

// TestGridNaiveEquivalence is the property test for the spatial index:
// over randomized topologies (static and moving), MAC parameters, and
// traffic, the grid-indexed medium and the naive full-scan medium must
// deliver the exact same frame sequence and count the exact same stats.
func TestGridNaiveEquivalence(t *testing.T) {
	const trials = 24
	totalDelivered := 0
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("seed=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)*7919 + 3))

			n := 8 + rng.Intn(56)
			side := 300 + rng.Float64()*900
			moving := trial%2 == 1
			const reindexEvery = 0.25
			maxSpeed := 0.0
			if moving {
				maxSpeed = 5 + rng.Float64()*25
			}

			// Per-node start positions and velocities; moving nodes
			// drift linearly so both media see identical trajectories.
			starts := make([]geom.Point, n)
			vels := make([]geom.Point, n)
			for i := range starts {
				starts[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
				if moving {
					ang := rng.Float64() * 2 * math.Pi
					sp := rng.Float64() * maxSpeed
					vels[i] = geom.Pt(sp*math.Cos(ang), sp*math.Sin(ang))
				}
			}
			pos := func(id int, now des.Time) geom.Point {
				return starts[id].Add(vels[id].Scale(now))
			}

			cfg := DefaultConfig(60 + rng.Float64()*120)
			cfg.CSRangeFactor = 1 + rng.Float64()*1.5
			cfg.VirtualCS = rng.Intn(2) == 0
			if rng.Intn(2) == 0 {
				cfg.CaptureRatio = 0
			}
			cfg.IndexSlack = maxSpeed*reindexEvery + 1

			seed := int64(trial)*31 + 11
			grid := buildEquivMedium(t, cfg, false, n, pos, seed)
			naive := buildEquivMedium(t, cfg, true, n, pos, seed)

			// Identical traffic on both media: a mix of broadcasts and
			// unicasts from random sources over the first 5 seconds.
			frames := 10 + rng.Intn(40)
			type sendSpec struct {
				at       des.Time
				src, dst int
				bits     int
			}
			specs := make([]sendSpec, frames)
			for k := range specs {
				sp := sendSpec{
					at:   rng.Float64() * 5,
					src:  rng.Intn(n),
					dst:  Broadcast,
					bits: 400 + rng.Intn(8000),
				}
				if rng.Intn(10) < 3 {
					sp.dst = rng.Intn(n)
				}
				specs[k] = sp
			}
			for _, em := range []*equivMedium{grid, naive} {
				em := em
				for k, sp := range specs {
					k, sp := k, sp
					em.sched.At(sp.at, func() {
						em.medium.radios[sp.src].Send(&Frame{Dst: sp.dst, Bits: sp.bits, Payload: k})
					})
				}
				des.NewTicker(em.sched, reindexEvery, 0, em.medium.Reindex)
				em.sched.Run(30)
			}

			if len(grid.log) != len(naive.log) {
				t.Fatalf("grid delivered %d frames, naive %d", len(grid.log), len(naive.log))
			}
			// The two paths resolve one airing's receivers in different
			// orders (id order vs grid-bucket order), so deliveries
			// within the same instant may be permuted; canonicalize
			// before the exact comparison.
			canon := func(log []recvRecord) {
				sort.Slice(log, func(i, j int) bool {
					a, b := log[i], log[j]
					if a.at != b.at {
						return a.at < b.at
					}
					if a.radio != b.radio {
						return a.radio < b.radio
					}
					if a.src != b.src {
						return a.src < b.src
					}
					return a.payload < b.payload
				})
			}
			canon(grid.log)
			canon(naive.log)
			for i := range grid.log {
				if grid.log[i] != naive.log[i] {
					t.Fatalf("delivery %d differs: grid %+v, naive %+v", i, grid.log[i], naive.log[i])
				}
			}
			if grid.medium.Stats() != naive.medium.Stats() {
				t.Fatalf("stats differ:\n grid  %+v\n naive %+v", grid.medium.Stats(), naive.medium.Stats())
			}
			totalDelivered += len(grid.log)
		})
	}
	// Guard against a vacuous pass: the randomized topologies must
	// actually exercise delivery, not just agree on silence.
	if totalDelivered == 0 {
		t.Fatal("no trial delivered any frame; the property test is vacuous")
	}
}

// TestEndIndexInvariant checks the end-tick index against a rescan of
// the retained FIFO (checkEndIndex) at random probe events during
// moving-radio runs. Sends are bunched into shared ticks with two frame sizes, so
// hidden senders produce batches of coincident ends.
func TestEndIndexInvariant(t *testing.T) {
	probed, multi := 0, 0
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*104729 + 5))
		n := 16 + rng.Intn(48)
		side := 300 + rng.Float64()*900
		const reindexEvery = 0.25
		maxSpeed := 5 + rng.Float64()*25
		starts := make([]geom.Point, n)
		vels := make([]geom.Point, n)
		for i := range starts {
			starts[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
			ang := rng.Float64() * 2 * math.Pi
			sp := rng.Float64() * maxSpeed
			vels[i] = geom.Pt(sp*math.Cos(ang), sp*math.Sin(ang))
		}
		pos := func(id int, now des.Time) geom.Point {
			return starts[id].Add(vels[id].Scale(now))
		}
		cfg := DefaultConfig(60 + rng.Float64()*120)
		cfg.CSRangeFactor = 1 + rng.Float64()*1.5
		cfg.VirtualCS = rng.Intn(2) == 0
		cfg.IndexSlack = maxSpeed*reindexEvery + 1
		em := buildEquivMedium(t, cfg, false, n, pos, int64(trial)+1)

		for k := 0; k < 40+rng.Intn(80); k++ {
			at := float64(rng.Intn(40)) * 0.125
			src, dst, bits := rng.Intn(n), Broadcast, 8000
			if rng.Intn(3) == 0 {
				bits = 800
			}
			if rng.Intn(10) < 3 {
				dst = rng.Intn(n)
			}
			em.sched.At(at, func() {
				em.medium.radios[src].Send(&Frame{Dst: dst, Bits: bits, Payload: k})
			})
		}
		var failure error
		for p := 0; p < 200; p++ {
			em.sched.At(rng.Float64()*6, func() {
				if failure != nil {
					return
				}
				failure = em.medium.checkEndIndex()
				if len(em.medium.ending) > 0 {
					probed++
				}
				for _, batch := range em.medium.ending {
					if len(batch) > 1 {
						multi++
					}
				}
			})
		}
		des.NewTicker(em.sched, reindexEvery, 0, em.medium.Reindex)
		em.sched.Run(30)
		if failure != nil {
			t.Fatalf("trial %d: %v", trial, failure)
		}
	}
	// Guard against a vacuous pass: probes must land while airings are
	// pending, and some ticks must batch several airings.
	if probed == 0 || multi == 0 {
		t.Fatalf("probes saw %d nonempty indexes and %d multi-airing ticks; the test is vacuous", probed, multi)
	}
	t.Logf("%d probes saw pending airings, %d multi-airing ticks", probed, multi)
}
