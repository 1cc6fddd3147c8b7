package ldt

import (
	"math"

	"glr/internal/geom"
	"glr/internal/shard"
)

// Speculative spanner precomputation.
//
// GLR's route check issues a spanner query whose inputs are fully
// determined ahead of time: the next check fires at an exact simulated
// instant (now + CheckInterval, tracked by the protocol), the neighbor
// table at that instant is the current table minus deterministic expiry
// — unless further beacons land first — and the node's own position is
// an exact lookahead (mobility models answer non-monotone queries
// without perturbing the trajectory). So on every beacon the protocol
// can hand the predicted (view, variant, k) to Speculate, and a worker
// builds the answer while the event loop keeps stepping.
//
// Determinism: a speculative build inserts only canonically-keyed
// witness triangulations into the shared cache — entries byte-identical
// to what the event loop would have built — and parks its accepted set
// in a side cache matched ORDER-EXACTLY against the real query's view.
// A matching query adopts the parked result (content identical to an
// inline build, by the determinism of the construction over an
// identically-ordered view); a stale prediction is simply never adopted
// and is swept away. Either way the query returns the same bytes the
// serial engine would, so speculation is pure wall-clock overlap.

// specEntry is one parked speculative build. done is closed by the
// worker once accIDs/accPts (or err) are final; until then only the
// immutable key fields may be read.
type specEntry struct {
	ids     []int // exact predicted view order (self first)
	pts     []geom.Point
	self    int
	variant Variant
	k       int
	r       float64
	at      float64 // predicted query time (retention)

	done   chan struct{}
	accIDs []int
	accPts []geom.Point
	err    error
}

// matchesOrdered reports whether the entry's predicted view equals the
// query's view element for element, in order. Order matters: the
// accepted set's emission order follows the view order, so only an
// order-exact match may be adopted as the query's answer.
func (s *specEntry) matchesOrdered(view *LocalView, variant Variant, k int) bool {
	if s.self != view.SelfID || s.variant != variant || s.k != k ||
		s.r != view.R || len(s.ids) != len(view.IDs) {
		return false
	}
	for i, id := range s.ids {
		if id != view.IDs[i] || !s.pts[i].Eq(view.Pts[i]) {
			return false
		}
	}
	return true
}

func (s *specEntry) isDone() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// sigViewOrdered hashes a view order-sensitively plus the query
// parameters — the spec side-cache key.
func sigViewOrdered(view *LocalView, variant Variant, k int) uint64 {
	h := uint64(fnvOffset64)
	for i, id := range view.IDs {
		h = fnvMix(h, uint64(id)+1)
		h = fnvMix(h, math.Float64bits(view.Pts[i].X))
		h = fnvMix(h, math.Float64bits(view.Pts[i].Y))
	}
	h = fnvMix(h, uint64(view.SelfID)+1)
	h = fnvMix(h, uint64(variant)+1)
	h = fnvMix(h, uint64(k)+1)
	h = fnvMix(h, math.Float64bits(view.R))
	return h
}

// EnableConcurrent attaches a shard worker pool: speculative builds run
// on the pool and the shared caches go behind a mutex. Results are
// unchanged — see the package comment at the top of this file. A nil or
// serial pool leaves the Maintainer in single-threaded mode. Safe to
// call repeatedly (every node's Init passes the same world pool).
func (m *Maintainer) EnableConcurrent(p *shard.Pool) {
	if p == nil || p.Workers() < 2 {
		return
	}
	m.pool = p
	m.concurrent = true
}

// Speculative reports whether speculative builds are active, so callers
// can skip assembling predicted views in serial mode.
func (m *Maintainer) Speculative() bool { return m.concurrent }

// Speculate requests a background build of the spanner query that
// selfID will issue at future simulated time `at` if its view is then
// exactly (ids, pts) — self first, caller's predicted order. The slices
// are copied; the caller keeps ownership. Best-effort: an already-cached
// or already-speculated query, a saturated pool, or a non-LDTG variant
// (Gabriel/UDG builds are too cheap to ship to a worker) make this a
// no-op.
func (m *Maintainer) Speculate(selfID int, ids []int, pts []geom.Point, r float64, variant Variant, k int, at float64) {
	if !m.concurrent || variant != VariantLDTG || k < 1 || len(ids) < 2 {
		return
	}
	view, err := NewLocalView(selfID, ids, pts, r)
	if err != nil {
		return
	}
	resSig := sigViewQuery(view, variant, k)
	specSig := sigViewOrdered(view, variant, k)
	m.mu.Lock()
	for _, e := range m.results[resSig] {
		if e.matches(view, variant, k) {
			m.mu.Unlock()
			return // the real query will hit the result cache anyway
		}
	}
	for _, s := range m.specs[specSig] {
		if s.matchesOrdered(view, variant, k) {
			m.mu.Unlock()
			return // identical prediction already in flight or parked
		}
	}
	m.mu.Unlock()

	sp := &specEntry{
		ids:     append([]int(nil), ids...),
		pts:     append([]geom.Point(nil), pts...),
		self:    selfID,
		variant: variant,
		k:       k,
		r:       r,
		at:      at,
		done:    make(chan struct{}),
	}
	if !m.pool.Submit(func() { m.runSpec(sp) }) {
		return
	}
	m.mu.Lock()
	m.specs[specSig] = append(m.specs[specSig], sp)
	m.stats.SpecBuilds++
	m.mu.Unlock()
}

// runSpec executes one speculative build on a worker, with borrowed
// scratch. It touches no simulation state: inputs are the entry's own
// copies, and the only shared structure is the triangulation cache,
// accessed under the Maintainer lock inside triangulation().
func (m *Maintainer) runSpec(sp *specEntry) {
	defer close(sp.done)
	c := m.ctxPool.Get().(*buildCtx)
	defer m.ctxPool.Put(c)
	view, err := NewLocalView(sp.self, sp.ids, sp.pts, sp.r)
	if err != nil {
		sp.err = err
		return
	}
	local, err := m.ldtgNeighbors(c, view, sp.k, sp.at)
	if err != nil {
		sp.err = err
		return
	}
	sp.accIDs = make([]int, len(local))
	sp.accPts = make([]geom.Point, len(local))
	for i, li := range local {
		sp.accIDs[i] = view.IDs[li]
		sp.accPts[i] = view.Pts[li]
	}
}

// adoptSpec answers a result-cache miss from the spec side-cache: an
// order-exact parked prediction is promoted into the result cache
// (content identical to the inline build the serial path would do now)
// and consumed. Waits for an in-flight build — the work is already
// running; blocking the event loop until it lands still overlaps the
// whole build minus the wait.
func (m *Maintainer) adoptSpec(view *LocalView, variant Variant, k int, now float64, resSig uint64) ([]int, []geom.Point, bool) {
	specSig := sigViewOrdered(view, variant, k)
	m.mu.Lock()
	bucket := m.specs[specSig]
	var sp *specEntry
	for i, s := range bucket {
		if s.matchesOrdered(view, variant, k) {
			sp = s
			bucket[i] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			if len(bucket) == 0 {
				delete(m.specs, specSig)
			} else {
				m.specs[specSig] = bucket
			}
			break
		}
	}
	m.mu.Unlock()
	if sp == nil {
		return nil, nil, false
	}
	<-sp.done
	if sp.err != nil {
		return nil, nil, false // fall back to the inline build
	}
	e := &resEntry{
		ids:     sp.ids,
		pts:     sp.pts,
		self:    sp.self,
		variant: sp.variant,
		k:       sp.k,
		r:       sp.r,
		accIDs:  sp.accIDs,
		accPts:  sp.accPts,
		lastHit: now,
	}
	m.mu.Lock()
	m.results[resSig] = append(m.results[resSig], e)
	m.stats.SpecAdopted++
	m.mu.Unlock()
	return e.accIDs, e.accPts, true
}

// sweepSpecs drops parked speculations whose predicted time has passed
// by more than the cache TTL — predictions the real query overtook.
// In-flight entries are kept; their workers finish soon and the next
// sweep reaps them. Called with the cache locked.
func (m *Maintainer) sweepSpecs(now float64) {
	for sig, bucket := range m.specs {
		keep := bucket[:0]
		for _, s := range bucket {
			if s.isDone() && now-s.at > cacheTTL {
				m.stats.Evictions++
				continue
			}
			keep = append(keep, s)
		}
		if len(keep) == 0 {
			delete(m.specs, sig)
		} else {
			m.specs[sig] = keep
		}
	}
}
