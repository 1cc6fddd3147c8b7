package core

import (
	"slices"

	"glr/internal/dtn"
	"glr/internal/geom"
	"glr/internal/ldt"
)

// routeCheck is the periodic store-and-forward loop (Algorithm 2): expire
// custody timeouts, refresh destination estimates, and attempt to forward
// every stored message along its trees. A check that ends with Store and
// Cache both empty does not rearm itself: the node sleeps until
// addToStore wakes it on its cadence.
func (g *GLR) routeCheck() {
	now := g.n.Now()

	// Custody timeouts: unacknowledged branches go back to the Store
	// "for another round of transfer rescheduling".
	scr := g.scr
	scr.stored = g.table.expire(now-cacheTimeout, scr.stored[:0])
	for _, rec := range scr.stored {
		g.stats.CustodyReturns++
		if rec.hasPending && rec.pending != 0 {
			rec.msg.Flags = rec.pending
		}
		rec.pending = 0
		rec.hasPending = false
	}

	if len(g.table.store) > 0 {
		view, nbrIDs, nbrPts := g.localSpanner()
		scr.stored = append(scr.stored[:0], g.table.store...)
		for _, rec := range scr.stored {
			g.routeMessage(rec, view, nbrIDs, nbrPts)
		}
	}

	g.nextCheck = now + g.cfg.CheckInterval
	if g.table.total() == 0 {
		g.checkArmed = false
		return
	}
	g.n.At(g.nextCheck, g.checkFn)
}

// localSpanner constructs this node's current routing-graph incident
// edges from 2-hop beacon knowledge (the LDTG by default; Gabriel or the
// raw UDG under ablation), through the world's shared Maintainer, which
// tests each candidate edge with one empty-circle scan of the view's
// points within 3 hops of the node: every witness set lies there. Only
// an edge that the points beyond 2 hops reject is scanned against each
// neighbor's 2-hop set.
// It returns the view plus parallel id/position slices of the accepted
// neighbors (global ids, in view order), which are the Maintainer's
// scratch and valid until any node's next query. The 2-hop point set and
// the view are assembled in the world's checkScratch (the neighbor table
// appends without allocating); the Maintainer keeps no reference to the
// view, so reuse across checks is safe.
func (g *GLR) localSpanner() (*ldt.LocalView, []int, []geom.Point) {
	scr := g.scr
	scr.thIDs, scr.thPts = g.n.Neighbors().AppendTwoHop(scr.thIDs[:0], scr.thPts[:0], g.n.ID(), g.n.Pos(), &scr.seen)
	if err := scr.view.Set(g.n.ID(), scr.thIDs, scr.thPts, g.n.Range()); err != nil {
		return nil, nil, nil
	}
	nbrIDs, nbrPts := g.maint.Neighbors(&scr.view, g.cfg.Spanner)
	return &scr.view, nbrIDs, nbrPts
}

// refreshDstLoc updates a message's destination estimate before a routing
// decision, per the configured knowledge regime and the local location
// table (§2.3.1).
func (g *GLR) refreshDstLoc(m *dtn.Message) {
	if g.cfg.Location == LocAllKnow {
		m.DstLoc = g.n.OraclePosition(m.Dst)
		m.DstLocTime = g.n.Now()
		m.DstLocKnown = true
		return
	}
	if e, ok := g.n.Locations().Get(m.Dst); ok {
		m.UpdateDstLoc(e.Pos, e.Time, true)
	}
}

// cand is one forwarding candidate: an accepted spanner neighbor closer
// to the destination estimate than we are.
type cand struct {
	id  int
	pos geom.Point
	d2  float64
}

// addTarget merges flags into the (sorted, ≤5-entry) scratch target list.
func (s *checkScratch) addTarget(dst int, flags dtn.TreeFlags) {
	for i := range s.targets {
		if s.targets[i].dst == dst {
			s.targets[i].flags |= flags
			return
		}
		if s.targets[i].dst > dst {
			s.targets = slices.Insert(s.targets, i, hopTarget{dst: dst, flags: flags})
			return
		}
	}
	s.targets = append(s.targets, hopTarget{dst: dst, flags: flags})
}

// routeMessage attempts to forward one stored copy (the per-message
// body of Algorithm 2).
func (g *GLR) routeMessage(rec *copyRec, view *ldt.LocalView, nbrIDs []int, nbrPts []geom.Point) {
	m := &rec.msg
	g.refreshDstLoc(m)
	now := g.n.Now()

	// Direct delivery: the destination is an audible neighbor.
	if nb, ok := g.n.Neighbors().Get(m.Dst); ok && nb.Pos.Dist(g.n.Pos()) <= g.n.Range() {
		g.stats.DirectForwards++
		g.scr.targets = append(g.scr.targets[:0], hopTarget{dst: m.Dst, flags: m.Flags})
		g.forward(rec, g.scr.targets)
		return
	}
	if view == nil || len(nbrIDs) == 0 {
		g.noteStuck(rec, now)
		return
	}

	selfPos := g.n.Pos()
	// Candidates: LDTG neighbors closer to the destination estimate ("if
	// there are neighbors closer to destination"), with a small progress
	// margin so pairs of nodes jostling past each other do not swap
	// custody every check.
	scr := g.scr
	closer := scr.closer[:0]
	selfD := selfPos.Dist(m.DstLoc)
	needD := selfD - g.cfg.ProgressHysteresis*g.n.Range()
	needD2 := needD * needD
	if needD <= 0 {
		needD2 = 0
	}
	for i, id := range nbrIDs {
		if d2 := nbrPts[i].Dist2(m.DstLoc); d2 < needD2 {
			closer = append(closer, cand{id: id, pos: nbrPts[i], d2: d2})
		}
	}
	scr.closer = closer

	if len(closer) == 0 {
		if g.cfg.DisableFaceRouting {
			g.noteStuck(rec, now)
			return
		}
		g.tryFaceRoute(rec, nbrIDs, nbrPts, now)
		return
	}
	// Insertion sort by progress: candidate sets are small (spanner
	// degree), the input order (spanner output) is deterministic, and
	// sort.Slice's closure + reflection swapper would allocate twice per
	// routed message.
	for i := 1; i < len(closer); i++ {
		c := closer[i]
		j := i - 1
		for j >= 0 && closer[j].d2 > c.d2 {
			closer[j+1] = closer[j]
			j--
		}
		closer[j+1] = c
	}

	// Tree extraction (§2.3): Max = maximum progress (closest to the
	// destination), Min = least positive progress, Mid = median, with
	// Mid2/Mid3 interleaved for five-copy operation.
	pick := func(f dtn.TreeFlags) int {
		n := len(closer)
		switch f {
		case dtn.FlagMax:
			return 0
		case dtn.FlagMin:
			return n - 1
		case dtn.FlagMid:
			return n / 2
		case dtn.FlagMid2:
			return n / 4
		default: // FlagMid3
			return (3 * n) / 4
		}
	}
	scr.targets = scr.targets[:0]
	for _, f := range dtn.AllTreeFlags(5) {
		if !m.Flags.Has(f) {
			continue
		}
		c := closer[pick(f)]
		scr.addTarget(c.id, f)
	}
	rec.hasStuck = false
	rec.hasFace = false
	rec.face = ldt.FaceState{}
	rec.hasFailTopo = false
	g.stats.GreedyForwards++
	g.forward(rec, scr.targets)
}

// topoSignature hashes the current LDTG neighbor id set (FNV-1a), used to
// detect whether the local topology changed since a face walk failed.
func topoSignature(nbrIDs []int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, id := range nbrIDs {
		h ^= uint64(id) + 1
		h *= prime64
	}
	return h
}

// tryFaceRoute handles a greedy local minimum: advance the message's face
// state on the planar LDTG, or store-and-wait when the face walk fails
// (mobility will change the topology before the next check). A failed
// walk is not retried until the local neighbor set changes — re-walking
// the same dead loop every check would burn transmissions for nothing.
func (g *GLR) tryFaceRoute(rec *copyRec, nbrIDs []int, nbrPts []geom.Point, now float64) {
	// A single-neighbor local minimum is a dead end, not a face: handing
	// the message over just swaps the carrier inside an isolated pair.
	if len(nbrIDs) < 2 && !(rec.hasFace && rec.face.Active) {
		g.noteStuck(rec, now)
		return
	}
	sig := topoSignature(nbrIDs)
	if rec.hasFailTopo && rec.failTopo == sig || rec.hasFailAt && now-rec.failAt < faceRetryBackoff {
		g.noteStuck(rec, now)
		return
	}
	rec.hasFace = true
	next, dec := rec.face.Step(g.n.ID(), g.n.Pos(), nbrIDs, nbrPts, rec.msg.DstLoc)
	switch dec {
	case ldt.FaceForward:
		g.stats.FaceForwards++
		rec.hasFailTopo = false
		g.scr.targets = append(g.scr.targets[:0], hopTarget{dst: nbrIDs[next], flags: rec.msg.Flags})
		g.forward(rec, g.scr.targets)
	case ldt.FaceExitGreedy:
		// We are closer than the face entry point; greedy will resume at
		// the next check. Clear the face state and treat as waiting.
		rec.hasFace = false
		rec.face = ldt.FaceState{}
		g.noteStuck(rec, now)
	case ldt.FaceFail:
		g.stats.FaceFailures++
		rec.hasFace = false
		rec.face = ldt.FaceState{}
		rec.failTopo = sig
		rec.hasFailTopo = true
		rec.failAt = now
		rec.hasFailAt = true
		g.noteStuck(rec, now)
	}
}

// noteStuck starts (or checks) the stale-location stuck timer (§3.3).
// The remedy fires only "when the message reaches a node that is closest
// to a stale destination location": the carrier must have been stuck for
// the threshold AND be essentially at the claimed coordinates (within
// transmission range) with no destination in sight — then the estimate is
// re-drawn so the closest node "could deliver it out to another node to
// increase the delivery probability". A carrier merely far away from the
// estimate keeps waiting: mobility, not relocation, is the cure there.
func (g *GLR) noteStuck(rec *copyRec, now float64) {
	if !rec.hasStuck {
		rec.stuckSince = now
		rec.hasStuck = true
		return
	}
	if now-rec.stuckSince < staleRelocateAfter {
		return
	}
	m := &rec.msg
	if g.n.Pos().Dist(m.DstLoc) > g.n.Range() {
		return // not at the claimed location: keep store-and-waiting
	}
	g.stats.Relocations++
	m.DstLoc = g.n.Region().RandomPoint(g.n.Rand())
	m.DstLocTime = now
	m.DstLocKnown = false
	rec.stuckSince = now
}
