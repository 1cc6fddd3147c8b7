package mac

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"glr/internal/des"
	"glr/internal/geom"
	"glr/internal/shard"
)

// TestShardedReceptionEquivalence: a medium with a shard pool attached
// must produce the exact same delivery sequence — same frames, same
// receivers, same order, same instants — and the same stats as the
// serial medium, across randomized dense broadcast-heavy topologies and
// 2/4/8 workers. Unlike the grid-vs-naive test no canonicalization is
// applied: the sharded path commits in the serial enumeration order, so
// even the within-instant order must match byte for byte.
func TestShardedReceptionEquivalence(t *testing.T) {
	const trials = 12
	totalDelivered := 0
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("seed=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)*104917 + 13))

			// Dense on purpose: enough radios per neighborhood to cross
			// the pinned RxMin so the parallel path actually runs.
			n := 40 + rng.Intn(60)
			side := 200 + rng.Float64()*300
			moving := trial%2 == 1
			const reindexEvery = 0.25
			maxSpeed := 0.0
			if moving {
				maxSpeed = 5 + rng.Float64()*25
			}
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

			cfg := DefaultConfig(60 + rng.Float64()*100)
			cfg.CSRangeFactor = 1 + rng.Float64()*1.5
			cfg.VirtualCS = rng.Intn(2) == 0
			if rng.Intn(2) == 0 {
				cfg.CaptureRatio = 0
			}
			cfg.IndexSlack = maxSpeed*reindexEvery + 1

			frames := 30 + rng.Intn(60)
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
				if rng.Intn(10) < 2 {
					sp.dst = rng.Intn(n)
				}
				specs[k] = sp
			}
			seed := int64(trial)*77 + 5

			run := func(workers int) *equivMedium {
				em := buildEquivMedium(t, cfg, false, n, pos, seed)
				if workers > 1 {
					pool := shard.NewPool(workers)
					defer pool.Close()
					em.medium.SetPool(pool, side, testThresholds())
				}
				for k, sp := range specs {
					k, sp := k, sp
					em.sched.At(sp.at, func() {
						em.medium.radios[sp.src].Send(&Frame{Dst: sp.dst, Bits: sp.bits, Payload: k})
					})
				}
				des.NewTicker(em.sched, reindexEvery, 0, em.medium.Reindex)
				em.sched.Run(30)
				return em
			}

			serial := run(1)
			for _, workers := range []int{2, 4, 8} {
				sharded := run(workers)
				if len(sharded.log) != len(serial.log) {
					t.Fatalf("workers=%d: %d deliveries vs %d serial", workers, len(sharded.log), len(serial.log))
				}
				for i := range serial.log {
					if serial.log[i] != sharded.log[i] {
						t.Fatalf("workers=%d delivery %d differs: serial %+v, sharded %+v",
							workers, i, serial.log[i], sharded.log[i])
					}
				}
				if serial.medium.Stats() != sharded.medium.Stats() {
					t.Fatalf("workers=%d stats differ:\n serial  %+v\n sharded %+v",
						workers, serial.medium.Stats(), sharded.medium.Stats())
				}
			}
			totalDelivered += len(serial.log)
		})
	}
	if totalDelivered == 0 {
		t.Fatal("no trial delivered any frame; the property test is vacuous")
	}
}

// TestSetPoolRefusals: serial pools and the naive medium keep the serial
// path.
func TestSetPoolRefusals(t *testing.T) {
	sched := des.NewScheduler()
	cfg := DefaultConfig(100)
	m, err := NewMedium(sched, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.SetPool(shard.NewPool(1), 1000, testThresholds())
	if m.pool != nil {
		t.Fatal("single-worker pool attached")
	}
	m.SetPool(nil, 1000, testThresholds())
	if m.pool != nil {
		t.Fatal("nil pool attached")
	}
	nm, err := newNaiveMedium(des.NewScheduler(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	nm.SetPool(shard.NewPool(4), 1000, testThresholds())
	if nm.pool != nil {
		t.Fatal("naive medium attached a pool")
	}
}

// testThresholds pins the fork thresholds the pre-calibration code used
// (a flat minimum of 8), keeping the equivalence trials' fork decisions
// host-independent.
func testThresholds() shard.Thresholds {
	return shard.Thresholds{RxMin: 8, BeaconMin: 8, MobilityMin: 8, DiffMin: 8}
}
