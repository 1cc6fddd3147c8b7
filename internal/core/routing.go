package core

import (
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
	g.stored = g.store.ExpireCache(now-cacheTimeout, g.stored[:0])
	for _, m := range g.stored {
		g.stats.CustodyReturns++
		if st := g.state(m.ID); st != nil {
			if st.hasPending && st.pending != 0 {
				m.Flags = st.pending
			}
			st.pending = 0
			st.hasPending = false
		}
	}

	if g.store.StoreLen() > 0 {
		view, nbrIDs, nbrPts := g.localSpanner()
		g.stored = g.store.AppendStored(g.stored[:0])
		for _, m := range g.stored {
			g.routeMessage(m, view, nbrIDs, nbrPts)
		}
	}

	g.nextCheck = now + g.cfg.CheckInterval
	if g.store.Total() == 0 {
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
// scratch and valid until any node's next query. The 2-hop point set is
// assembled in per-instance scratch buffers (the neighbor table appends
// without allocating); the Maintainer keeps no reference to the view, so
// reuse across checks is safe. The view itself is the instance's, filled
// in place.
func (g *GLR) localSpanner() (*ldt.LocalView, []int, []geom.Point) {
	g.thIDs, g.thPts = g.n.Neighbors().AppendTwoHop(g.thIDs[:0], g.thPts[:0], g.n.ID(), g.n.Pos())
	if err := g.view.Set(g.n.ID(), g.thIDs, g.thPts, g.n.Range()); err != nil {
		return nil, nil, nil
	}
	nbrIDs, nbrPts := g.maint.Neighbors(&g.view, g.cfg.Spanner)
	return &g.view, nbrIDs, nbrPts
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
func (g *GLR) addTarget(dst int, flags dtn.TreeFlags) {
	for i := range g.targets {
		if g.targets[i].dst == dst {
			g.targets[i].flags |= flags
			return
		}
		if g.targets[i].dst > dst {
			g.targets = append(g.targets, hopTarget{})
			copy(g.targets[i+1:], g.targets[i:])
			g.targets[i] = hopTarget{dst: dst, flags: flags}
			return
		}
	}
	g.targets = append(g.targets, hopTarget{dst: dst, flags: flags})
}

// routeMessage attempts to forward one stored message (the per-message
// body of Algorithm 2).
func (g *GLR) routeMessage(m *dtn.Message, view *ldt.LocalView, nbrIDs []int, nbrPts []geom.Point) {
	g.refreshDstLoc(m)
	now := g.n.Now()

	// Direct delivery: the destination is an audible neighbor.
	if nb, ok := g.n.Neighbors().Get(m.Dst); ok && nb.Pos.Dist(g.n.Pos()) <= g.n.Range() {
		g.stats.DirectForwards++
		g.targets = append(g.targets[:0], hopTarget{dst: m.Dst, flags: m.Flags})
		g.forward(m, g.targets)
		return
	}
	if view == nil || len(nbrIDs) == 0 {
		g.noteStuck(m, now)
		return
	}

	selfPos := g.n.Pos()
	// Candidates: LDTG neighbors closer to the destination estimate ("if
	// there are neighbors closer to destination"), with a small progress
	// margin so pairs of nodes jostling past each other do not swap
	// custody every check.
	closer := g.closer[:0]
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
	g.closer = closer

	if len(closer) == 0 {
		if g.cfg.DisableFaceRouting {
			g.noteStuck(m, now)
			return
		}
		g.tryFaceRoute(m, nbrIDs, nbrPts, now)
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
	g.targets = g.targets[:0]
	for _, f := range dtn.AllTreeFlags(5) {
		if !m.Flags.Has(f) {
			continue
		}
		c := closer[pick(f)]
		g.addTarget(c.id, f)
	}
	if st := g.state(m.ID); st != nil {
		st.hasStuck = false
		st.hasFace = false
		st.face = ldt.FaceState{}
		st.hasFailTopo = false
	}
	g.stats.GreedyForwards++
	g.forward(m, g.targets)
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
func (g *GLR) tryFaceRoute(m *dtn.Message, nbrIDs []int, nbrPts []geom.Point, now float64) {
	// A single-neighbor local minimum is a dead end, not a face: handing
	// the message over just swaps the carrier inside an isolated pair.
	if len(nbrIDs) < 2 && !g.faceActive(m.ID) {
		g.noteStuck(m, now)
		return
	}
	sig := topoSignature(nbrIDs)
	if st := g.state(m.ID); st != nil {
		if st.hasFailTopo && st.failTopo == sig {
			g.noteStuck(m, now)
			return
		}
		if st.hasFailAt && now-st.failAt < faceRetryBackoff {
			g.noteStuck(m, now)
			return
		}
	}
	st := g.ensureState(m.ID)
	st.hasFace = true
	next, dec := st.face.Step(g.n.ID(), g.n.Pos(), nbrIDs, nbrPts, m.DstLoc)
	switch dec {
	case ldt.FaceForward:
		g.stats.FaceForwards++
		st.hasFailTopo = false
		g.targets = append(g.targets[:0], hopTarget{dst: nbrIDs[next], flags: m.Flags})
		g.forward(m, g.targets)
	case ldt.FaceExitGreedy:
		// We are closer than the face entry point; greedy will resume at
		// the next check. Clear the face state and treat as waiting.
		st.hasFace = false
		st.face = ldt.FaceState{}
		g.noteStuck(m, now)
	case ldt.FaceFail:
		g.stats.FaceFailures++
		st.hasFace = false
		st.face = ldt.FaceState{}
		st.failTopo = sig
		st.hasFailTopo = true
		st.failAt = now
		st.hasFailAt = true
		g.noteStuck(m, now)
	}
}

// faceActive reports whether a face walk is in progress for the message.
func (g *GLR) faceActive(id dtn.MessageID) bool {
	st := g.state(id)
	return st != nil && st.hasFace && st.face.Active
}

// noteStuck starts (or checks) the stale-location stuck timer (§3.3).
// The remedy fires only "when the message reaches a node that is closest
// to a stale destination location": the carrier must have been stuck for
// the threshold AND be essentially at the claimed coordinates (within
// transmission range) with no destination in sight — then the estimate is
// re-drawn so the closest node "could deliver it out to another node to
// increase the delivery probability". A carrier merely far away from the
// estimate keeps waiting: mobility, not relocation, is the cure there.
func (g *GLR) noteStuck(m *dtn.Message, now float64) {
	st := g.ensureState(m.ID)
	if !st.hasStuck {
		st.stuckSince = now
		st.hasStuck = true
		return
	}
	if now-st.stuckSince < staleRelocateAfter {
		return
	}
	if g.n.Pos().Dist(m.DstLoc) > g.n.Range() {
		return // not at the claimed location: keep store-and-waiting
	}
	g.stats.Relocations++
	m.DstLoc = g.n.Region().RandomPoint(g.n.Rand())
	m.DstLocTime = now
	m.DstLocKnown = false
	st.stuckSince = now
}
