package mac

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// equivMedium is one of the media under comparison, with its own
// scheduler and delivery log.
type equivMedium struct {
	sched  *des.Scheduler
	medium *Medium
	log    []recvRecord
}

// mediumFunc builds a medium: NewMedium, or one of the test references
// in export_test.go.
type mediumFunc func(sched *des.Scheduler, cfg Config, seed int64, w, h float64, n int, pos func(int) geom.Point) (*Medium, error)

// buildEquivMedium wires n radios with the given position functions onto
// a fresh medium built by newMedium for the region [0,side]². pos
// functions take the medium's own clock so moving topologies evolve
// identically on every side.
func buildEquivMedium(t testing.TB, newMedium mediumFunc, cfg Config, n int, side float64, pos func(id int, now des.Time) geom.Point, seed int64) *equivMedium {
	t.Helper()
	sched := des.NewScheduler()
	m, err := newMedium(sched, cfg, seed, side, side, n, func(id int) geom.Point { return pos(id, sched.Now()) })
	if err != nil {
		t.Fatal(err)
	}
	em := &equivMedium{sched: sched, medium: m}
	for i := 0; i < n; i++ {
		_, err := m.AddRadio(i,
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

// requireSameRun fails t unless both media delivered the same frames in
// the same order and counted the same stats.
func requireSameRun(t testing.TB, a, b *equivMedium, aName, bName string) {
	t.Helper()
	if len(a.log) != len(b.log) {
		t.Fatalf("%s delivered %d frames, %s %d", aName, len(a.log), bName, len(b.log))
	}
	for i := range a.log {
		if a.log[i] != b.log[i] {
			t.Fatalf("delivery %d differs: %s %+v, %s %+v", i, aName, a.log[i], bName, b.log[i])
		}
	}
	if a.medium.Stats() != b.medium.Stats() {
		t.Fatalf("stats differ:\n %-6s %+v\n %-6s %+v", aName, a.medium.Stats(), bName, b.medium.Stats())
	}
}

// sendSpec is one frame a test world hands to a radio at a given time.
type sendSpec struct {
	at       des.Time
	src, dst int
	bits     int
}

// equivWorld is a randomized topology (static or moving), reception
// range and traffic that every medium under comparison runs.
type equivWorld struct {
	n     int
	side  float64 // the region [0,side]² the radios start in
	cfg   Config
	pos   func(id int, now des.Time) geom.Point
	seed  int64
	sends []sendSpec
}

// equivReindexEvery is the period of a world's Reindex ticker.
const equivReindexEvery = 0.25

// randomEquivWorld draws world number trial: 8–63 radios on a square of
// side 300–1200 m, the media's region, moving linearly in odd trials
// (at up to 30 m/s, so some leave the square for its margin cells), a
// reception range of 60–180 m, and 10–49 broadcast and unicast frames of 400–8399 bits sent over the
// first 5 seconds.
func randomEquivWorld(trial int) equivWorld {
	rng := rand.New(rand.NewSource(int64(trial)*7919 + 3))

	n := 8 + rng.Intn(56)
	side := 300 + rng.Float64()*900
	moving := trial%2 == 1
	maxSpeed := 0.0
	if moving {
		maxSpeed = 5 + rng.Float64()*25
	}

	// Per-node start positions and velocities; moving nodes drift
	// linearly so every medium sees identical trajectories.
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

	cfg := Config{Range: 60 + rng.Float64()*120, IndexSlack: maxSpeed*equivReindexEvery + 1}

	w := equivWorld{n: n, side: side, cfg: cfg, pos: pos, seed: int64(trial)*31 + 11}
	w.sends = make([]sendSpec, 10+rng.Intn(40))
	for k := range w.sends {
		sp := sendSpec{
			at:   rng.Float64() * 5,
			src:  rng.Intn(n),
			dst:  Broadcast,
			bits: 400 + rng.Intn(8000),
		}
		if rng.Intn(10) < 3 {
			sp.dst = rng.Intn(n)
		}
		w.sends[k] = sp
	}
	return w
}

// run plays the world on a medium built by newMedium for 30 simulated
// seconds. Frame k carries payload k.
func (w equivWorld) run(t testing.TB, newMedium mediumFunc) *equivMedium {
	t.Helper()
	em := buildEquivMedium(t, newMedium, w.cfg, w.n, w.side, w.pos, w.seed)
	for k, sp := range w.sends {
		em.sched.At(sp.at, func() {
			em.medium.radios[sp.src].Send(&Frame{Dst: sp.dst, Bits: sp.bits, Payload: k})
		})
	}
	des.NewTicker(em.sched, equivReindexEvery, 0, em.medium.Reindex)
	em.sched.Run(30)
	return em
}

// TestGridNaiveEquivalence is the property test for the spatial index:
// over randomized topologies (static and moving), ranges, and traffic, the grid-indexed medium and the naive full-scan medium must
// deliver the exact same frame sequence and count the exact same stats,
// on the world's square and on a region an eighth as wide, which leaves
// most radios beyond the grid's margin cells, clamped into them.
func TestGridNaiveEquivalence(t *testing.T) {
	const trials = 24
	totalDelivered := 0
	for trial := 0; trial < 2*trials; trial++ {
		name := fmt.Sprintf("seed=%d", trial)
		if trial >= trials {
			name = fmt.Sprintf("clamped_seed=%d", trial-trials)
		}
		t.Run(name, func(t *testing.T) {
			w := randomEquivWorld(trial % trials)
			if trial >= trials {
				w.side /= 8
			}
			grid := w.run(t, NewMedium)
			naive := w.run(t, newNaiveMedium)
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
			requireSameRun(t, grid, naive, "grid", "naive")
			totalDelivered += len(grid.log)
		})
	}
	// Guard against a vacuous pass: the randomized topologies must
	// actually exercise delivery, not just agree on silence.
	if totalDelivered == 0 {
		t.Fatal("no trial delivered any frame; the property test is vacuous")
	}
}

// TestRetentionMatchesUnpruned is the property test for the retention
// rule: on the worlds of TestGridNaiveEquivalence, on the same worlds
// with one frame stretched to a 1–4 s broadcast airing and up to four
// short broadcasts sent with it (shortFrames), and on placed long-airing
// worlds (placedLongAiringWorld), the production medium (which keeps an
// ended airing for one longest airtime plus a slot) and the never-pruning
// reference deliver the same frames in the same order and count the same
// stats. The short frames end within milliseconds of the long airing's
// start, seconds before it ends and is resolved, so only the retention
// rule keeps them for its overlap checks; the test counts the receptions
// of the long airing they destroy, by comparing with the same world
// without them, and requires some overall and in every placed world.
// A random world need not have a hidden sender near the long airing's
// receivers, nor one that starts before the long airing; a placed world
// always has both, so a medium that drops the retention rule fails
// every placed run.
func TestRetentionMatchesUnpruned(t *testing.T) {
	const trials = 24
	pruned, collisions, corruptions := 0, uint64(0), 0
	for trial := 0; trial < trials; trial++ {
		for _, long := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/long=%v", trial, long), func(t *testing.T) {
				w := randomEquivWorld(trial)
				var clean equivWorld
				li := -1
				if long {
					rng := rand.New(rand.NewSource(int64(trial) + 101))
					// One frame becomes a 1–4 s broadcast airing: the
					// one whose sender has the most hidden senders
					// around its receivers. (A second long airing on
					// the air would keep the short frames retained: the
					// FIFO prunes only from its front.)
					sends := slices.Clone(w.sends)
					bits := 1e6 + rng.Intn(3e6)
					li = rng.Intn(len(sends))
					var hidden []int
					for k, l := range sends {
						l.bits, l.dst = bits, Broadcast
						if hs := w.hiddenSenders(l); len(hs) > len(hidden) {
							li, hidden = k, hs
						}
					}
					sends[li].bits, sends[li].dst = bits, Broadcast
					clean = w
					clean.sends = sends
					w.sends = append(slices.Clone(sends), shortFrames(sends[li], hidden, w.n, rng)...)
				}
				tight := w.run(t, NewMedium)
				ref := w.run(t, newUnprunedMedium)
				requireSameRun(t, tight, ref, "tight", "never-pruned")
				if tight.medium.retained() < ref.medium.retained() {
					pruned++
				}
				collisions += tight.medium.Stats().Collisions
				if long {
					corruptions += lostReceptions(clean.run(t, NewMedium).log, tight.log, li)
				}
			})
		}
		t.Run(fmt.Sprintf("seed=%d/placed", trial), func(t *testing.T) {
			w := placedLongAiringWorld(trial)
			clean := w
			clean.sends = w.sends[:1]
			tight := w.run(t, NewMedium)
			ref := w.run(t, newUnprunedMedium)
			requireSameRun(t, tight, ref, "tight", "never-pruned")
			if tight.medium.retained() < ref.medium.retained() {
				pruned++
			}
			collisions += tight.medium.Stats().Collisions
			lost := lostReceptions(clean.run(t, NewMedium).log, tight.log, 0)
			if lost == 0 {
				t.Fatalf("no receiver of the long airing lost it to the %d hidden senders' short frames", len(w.sends)-1)
			}
			corruptions += lost
		})
	}
	// Guard against a vacuous pass: the production medium must have
	// pruned airings the reference kept, overlaps must have decided
	// some receptions, and short frames that ended long before the long
	// airing must have destroyed some of its receptions.
	if pruned == 0 || collisions == 0 || corruptions == 0 {
		t.Fatalf("%d runs pruned, %d collisions, %d long-airing receptions lost to short frames; the property test is vacuous",
			pruned, collisions, corruptions)
	}
	t.Logf("%d long-airing receptions lost to short frames", corruptions)
}

// hiddenSenders returns, in id order, the radios hidden from the long
// airing l's sender (beyond carrier sense, so neither defers to the
// other) and close enough to one of l's receivers to corrupt its
// reception there: under 1.7 times the wanted distance, inside the
// capture bound of captureRatio^¼ ≈ 1.78.
func (w equivWorld) hiddenSenders(l sendSpec) []int {
	end := l.at + float64(headerBits+l.bits)/bitRate
	src := w.pos(l.src, l.at)
	var hidden []int
	for h := 0; h < w.n; h++ {
		hp := w.pos(h, l.at)
		if h == l.src || hp.Dist(src) <= 1.05*csRangeFactor*w.cfg.Range {
			continue
		}
		for r := 0; r < w.n; r++ {
			rp := w.pos(r, end)
			if d := rp.Dist(src); r != h && r != l.src && d <= 0.95*w.cfg.Range && hp.Dist(rp) < 1.7*d {
				hidden = append(hidden, h)
				break
			}
		}
	}
	return hidden
}

// placedLongAiringWorld builds placed world number trial: radio 0, in
// the middle of a square of side 6·Range, sends one 1–4 s broadcast,
// frame 0. One to four receivers sit 0.85–0.95·Range from it, a quarter
// turn apart (±15°). Behind each receiver, on the ray from the sender,
// a hidden sender sits 2.1·Range or more from the sender, beyond its
// carrier sense, and at most 1.6 times the receiver's distance from the
// receiver: inside the capture bound captureRatio^¼ ≈ 1.78 and within
// interference range, so its frame corrupts the long airing there, and
// out of reception range of every receiver. The hidden senders are at
// least 60° apart, hence beyond carrier sense of each other, and each
// sends a short broadcast (shortFrames) that starts before the long
// airing and ends seconds before it.
func placedLongAiringWorld(trial int) equivWorld {
	rng := rand.New(rand.NewSource(int64(trial)*6007 + 17))
	r := 60 + rng.Float64()*120
	side := 6 * r
	center := geom.Pt(side/2, side/2)
	pts := []geom.Point{center}
	var hidden []int
	base := rng.Float64() * 2 * math.Pi
	for k := range 1 + rng.Intn(4) {
		ang := base + float64(k)*math.Pi/2 + (rng.Float64()-0.5)*math.Pi/6
		dir := geom.Pt(math.Cos(ang), math.Sin(ang))
		d := (0.85 + 0.1*rng.Float64()) * r
		far := 2.1*r + rng.Float64()*(2.6*d-2.1*r)
		pts = append(pts, center.Add(dir.Scale(d)), center.Add(dir.Scale(far)))
		hidden = append(hidden, len(pts)-1)
	}
	long := sendSpec{at: 1 + rng.Float64(), src: 0, dst: Broadcast, bits: 1e6 + rng.Intn(3e6)}
	return equivWorld{
		n:     len(pts),
		side:  side,
		cfg:   Config{Range: r},
		pos:   func(id int, _ des.Time) geom.Point { return pts[id] },
		seed:  int64(trial)*37 + 5,
		sends: append([]sendSpec{long}, shortFrames(long, hidden, len(pts), rng)...),
	}
}

// shortFrames returns the short broadcasts sent with the long airing l:
// one from each of up to four hidden senders, sent 1 ms before l, or,
// in a world with none, four from random senders in the 10 ms before
// l. Whatever the backoffs (DIFS plus at most cwMin slots, under
// 0.7 ms), a hidden sender's frame then starts before l, so it sits
// ahead of l in the retained FIFO, where pruning reaches it, and with
// at least 2000 bits (2.46 ms on the air) it is still airing when l
// starts. No random frames join them: their contention would defer the
// hidden senders past l's start.
func shortFrames(l sendSpec, hidden []int, n int, rng *rand.Rand) []sendSpec {
	var shorts []sendSpec
	for _, k := range rng.Perm(len(hidden)) {
		if len(shorts) < 4 {
			shorts = append(shorts, sendSpec{at: max(0, l.at-0.001), src: hidden[k], dst: Broadcast, bits: 2000 + rng.Intn(6400)})
		}
	}
	for len(hidden) == 0 && len(shorts) < 4 {
		shorts = append(shorts, sendSpec{
			at:   max(0, l.at-0.01*rng.Float64()),
			src:  rng.Intn(n),
			dst:  Broadcast,
			bits: 400 + rng.Intn(8000),
		})
	}
	return shorts
}

// lostReceptions counts the radios that received frame k in the log
// clean and not in the log log.
func lostReceptions(clean, log []recvRecord, k int) int {
	got := map[int]bool{}
	for _, r := range log {
		if r.payload == k {
			got[r.radio] = true
		}
	}
	lost := 0
	for _, r := range clean {
		if r.payload == k && !got[r.radio] {
			lost++
		}
	}
	return lost
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
		cfg := Config{Range: 60 + rng.Float64()*120, IndexSlack: maxSpeed*reindexEvery + 1}
		em := buildEquivMedium(t, NewMedium, cfg, n, side, pos, int64(trial)+1)

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
