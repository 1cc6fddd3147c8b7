package core

import (
	"glr/internal/dtn"
	"glr/internal/freelist"
	"glr/internal/geom"
	"glr/internal/ldt"
	"glr/internal/sim"
)

// dataFrame carries one message copy hop to hop. The geo header includes
// the sender's position and timestamp, enabling §2.3.1 diffusion; the
// message itself carries the destination-location estimate.
//
// Frames travel as pooled pointers (one world-shared boxPool): the
// receiver copies Msg/Face out during reception, and the sender recycles
// the frame in OnSent — the only point after which neither the medium
// nor any receiver reads it.
type dataFrame struct {
	Msg       dtn.Message
	Face      ldt.FaceState // face-mode state travels with the copy
	SenderPos geom.Point
	SentAt    float64
}

// boxPool recycles the boxes GLR churns once per copy per hop: dataFrame
// and ackFrame payloads and the record of each held copy. It is shared
// by every node of a world (single-threaded like the scheduler), so one
// node's released box stocks the next node's take. A frame goes back in
// OnSent; a record when its copy leaves the node's custody table (ack,
// fire-and-forget send, eviction, restart). Every taker overwrites all
// of a box.
type boxPool struct {
	frames freelist.List[dataFrame]
	acks   freelist.List[ackFrame]
	recs   freelist.List[copyRec]
}

// ackFrame is the custody acknowledgment (§2.3.2): it identifies the
// message ("source node, destination node, message count") and the tree
// branch ("it is needed because messages in different tree branches follow
// different routing paths"), and piggybacks the receiver's destination-
// location knowledge so the sender's table benefits from reverse
// diffusion ("notifies the message holder if it has more recent
// destination location than that of the message holder").
type ackFrame struct {
	ID         dtn.MessageID
	Dst        int
	Flags      dtn.TreeFlags
	SenderPos  geom.Point
	DstLoc     geom.Point
	DstLocTime float64
	DstKnown   bool
}

// forward transmits a stored copy to its per-tree targets and performs
// the custody bookkeeping. targets lists next-hop picks sorted by node
// id (deterministic transmission order); it may alias the world's
// scratch and is not retained.
func (g *GLR) forward(rec *copyRec, targets []hopTarget) {
	now := g.n.Now()
	selfPos := g.n.Pos()
	m := &rec.msg
	faceState := ldt.FaceState{}
	if rec.hasFace {
		faceState = rec.face
	}

	if g.cfg.Custody {
		// Move Store→Cache and record every branch as pending BEFORE
		// transmitting: a full link-layer queue makes the MAC resolve a
		// frame synchronously inside Unicast, and onSendFailed must find
		// the custody state in place to return the branch to the Store
		// immediately rather than letting it ride out the cache timeout.
		g.table.markSent(rec, now)
		for _, tgt := range targets {
			rec.pending |= tgt.flags
		}
		rec.hasPending = true
	}

	for _, tgt := range targets {
		f := g.pool.frames.Take()
		f.Msg = *m
		f.Msg.Flags = tgt.flags
		f.Face = faceState
		f.SenderPos = selfPos
		f.SentAt = now
		g.n.Unicast(tgt.dst, sim.KindData, f, m.PayloadBits+geoHeaderBits)
	}

	if g.cfg.Custody {
		return
	}
	// Fire and forget (§2.3.2 inverted): without custody transfer the
	// sender deletes the message as soon as it is sent — no link-layer
	// or protocol confirmation is awaited, so any copy that dies in
	// transit (collision, receiver moved away, queue overflow) is gone:
	// "delivered with high probability but without any guarantee".
	g.table.release(rec, &g.pool.recs)
}

// onSendFailed reacts to a MAC-level unicast failure (no receiver after
// retries). Under custody the failed branch returns to the Store
// immediately instead of waiting for the cache timeout; branches still in
// flight keep their pending-ack state.
func (g *GLR) onSendFailed(id dtn.MessageID, flags dtn.TreeFlags) {
	if !g.cfg.Custody {
		return
	}
	rec := g.table.get(id)
	if rec == nil || !rec.hasPending {
		return
	}
	if remaining := rec.pending &^ flags; remaining == 0 {
		rec.pending = 0
		rec.hasPending = false
	} else {
		rec.pending = remaining
	}
	if rec.cached {
		g.table.returnToStore(rec)
		g.stats.CustodyReturns++
		rec.msg.Flags = flags // only the failed branches reroute
	} else {
		rec.msg.Flags |= flags // an earlier failure already returned it
	}
}

// OnFrame implements sim.Protocol.
func (g *GLR) OnFrame(payload any, from int) {
	switch f := payload.(type) {
	case *dataFrame:
		g.onData(f, from)
	case *ackFrame:
		g.onAck(*f, from)
	}
}

// OnSent implements sim.Protocol: a data frame the MAC abandoned
// returns its branches to the Store, and every frame box recycles.
func (g *GLR) OnSent(payload any, ok bool) {
	switch f := payload.(type) {
	case *dataFrame:
		if !ok {
			g.onSendFailed(f.Msg.ID, f.Msg.Flags)
		}
		g.pool.frames.Put(f)
	case *ackFrame:
		g.pool.acks.Put(f)
	}
}

// onData handles an arriving message copy. f is the sender's pooled
// frame: everything kept past this call is copied out of it, the
// message into the custody table.
func (g *GLR) onData(f *dataFrame, from int) {
	m := f.Msg
	m.Hops++

	// Location diffusion (§2.3.1): the frame teaches us the sender's
	// position; the message header and our table reconcile, newer wins
	// in both directions.
	g.n.Locations().Update(from, f.SenderPos, f.SentAt)
	if e, ok := g.n.Locations().Get(m.Dst); ok {
		m.UpdateDstLoc(e.Pos, e.Time, true)
	}
	if m.DstLocKnown {
		g.n.Locations().Update(m.Dst, m.DstLoc, m.DstLocTime)
	}

	if m.Dst == g.n.ID() {
		// Arrived. Acknowledge so the sender clears its Cache (when
		// custody is in use); report only the first copy.
		if g.cfg.Custody {
			g.sendAck(from, &m)
		}
		if r := g.n.MessageRanks().Rank(m.ID); !g.delivered.Has(r) {
			g.delivered.Add(r)
			g.n.ReportDelivered(&m)
		}
		return
	}

	// Custody accept: store the copy and acknowledge this tree branch.
	if g.cfg.Custody {
		g.sendAck(from, &m)
	}
	rec := g.addToStore(&m)
	if f.Face.Active {
		rec.face = f.Face
		rec.hasFace = true
	}
}

// onAck completes custody transfer for the acknowledged tree branches.
func (g *GLR) onAck(f ackFrame, from int) {
	g.n.Locations().Update(from, f.SenderPos, g.n.Now())
	if f.DstKnown {
		g.n.Locations().Update(f.Dst, f.DstLoc, f.DstLocTime)
	}
	rec := g.table.get(f.ID)
	if rec == nil || !rec.hasPending {
		return
	}
	remaining := rec.pending &^ f.Flags
	if remaining != 0 {
		rec.pending = remaining
		return
	}
	if rec.cached {
		g.table.release(rec, &g.pool.recs)
		return
	}
	// A failed branch returned the copy to the Store before this ack
	// came: the copy stays, and its routing state starts afresh.
	rec.msgState = msgState{}
}

// sendAck unicasts a custody/delivery acknowledgment for the received
// copy from a pooled box (back in OnSent), piggybacking our
// destination-location knowledge.
func (g *GLR) sendAck(to int, m *dtn.Message) {
	a := g.pool.acks.Take()
	*a = ackFrame{
		ID:        m.ID,
		Dst:       m.Dst,
		Flags:     m.Flags,
		SenderPos: g.n.Pos(),
	}
	if m.Dst == g.n.ID() {
		// We ARE the destination: our own position is the freshest
		// possible estimate.
		a.DstLoc, a.DstLocTime, a.DstKnown = g.n.Pos(), g.n.Now(), true
	} else if e, ok := g.n.Locations().Get(m.Dst); ok {
		a.DstLoc, a.DstLocTime, a.DstKnown = e.Pos, e.Time, true
	}
	g.n.Unicast(to, sim.KindAck, a, ackBits)
}

// OnBeacon implements sim.Protocol. Node-level bookkeeping (neighbor and
// location tables) already ran; routing reacts at the next route check
// ("when ... new path emerges in the locally constructed trees, it will
// send the stored messages").
func (g *GLR) OnBeacon(sim.Beacon) {}
