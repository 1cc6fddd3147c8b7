package core

import (
	"glr/internal/dtn"
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
// the frame when the MAC reports the unicast resolved — the only point
// after which neither the medium nor any receiver reads it.
type dataFrame struct {
	Msg       dtn.Message
	Face      ldt.FaceState // face-mode state travels with the copy
	SenderPos geom.Point
	SentAt    float64

	owner  *GLR          // sending instance, for the completion callback
	onDone func(ok bool) // persistent MAC callback (one alloc per pooled frame)
}

// boxPool recycles the boxes GLR churns once per copy per hop: dataFrame
// and ackBox payloads, the *dtn.Message a relay stores, and its
// msgState. It follows the internal/des free-list pattern and is shared
// by every node of a world (single-threaded like the scheduler), so one
// node's released box stocks the next node's take. A message box goes
// back when it leaves this node's custody (ack, fire-and-forget send,
// eviction, arrival, merge into a held copy; see putMsg's callers), a
// msgState when forget deletes it.
type boxPool struct {
	frames []*dataFrame
	acks   []*ackBox
	msgs   []*dtn.Message
	states []*msgState
	// poison, when set, takes every released message box or msgState
	// instead of the free lists, which then never hand one out again.
	// Only tests set it (export_test.go), to show that nothing reads a
	// box after release.
	poison func(*dtn.Message, *msgState)
}

// take returns a recycled (or fresh) frame.
func (p *boxPool) take() *dataFrame {
	if n := len(p.frames); n > 0 {
		f := p.frames[n-1]
		p.frames = p.frames[:n-1]
		return f
	}
	f := &dataFrame{}
	f.onDone = func(ok bool) { f.owner.dataFrameResolved(f, ok) }
	return f
}

// put recycles f, dropping every reference but the persistent callback.
func (p *boxPool) put(f *dataFrame) {
	*f = dataFrame{onDone: f.onDone}
	p.frames = append(p.frames, f)
}

// takeMsg returns a recycled (or fresh) message box; the caller
// overwrites all of it.
func (p *boxPool) takeMsg() *dtn.Message {
	if n := len(p.msgs); n > 0 {
		m := p.msgs[n-1]
		p.msgs = p.msgs[:n-1]
		return m
	}
	return &dtn.Message{}
}

// putMsg recycles a message box that no buffer, frame or caller holds.
func (p *boxPool) putMsg(m *dtn.Message) {
	if p.poison != nil {
		p.poison(m, nil)
		return
	}
	p.msgs = append(p.msgs, m)
}

// takeState returns a zeroed msgState.
func (p *boxPool) takeState() *msgState {
	if n := len(p.states); n > 0 {
		st := p.states[n-1]
		p.states = p.states[:n-1]
		*st = msgState{}
		return st
	}
	return &msgState{}
}

// putState recycles a msgState that no map holds.
func (p *boxPool) putState(st *msgState) {
	if p.poison != nil {
		p.poison(nil, st)
		return
	}
	p.states = append(p.states, st)
}

// dataFrameResolved is the MAC completion callback for a data frame:
// custody bookkeeping for failed branches, then recycle.
func (g *GLR) dataFrameResolved(f *dataFrame, ok bool) {
	if g.cfg.Custody && !ok {
		g.onSendFailed(f.Msg.ID, f.Msg.Flags)
	}
	g.pool.put(f)
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

// ackBox is a pooled ackFrame: one ack is sent per received copy under
// custody, so the payload boxes recycle exactly like dataFrames.
type ackBox struct {
	ackFrame
	owner  *GLR
	onDone func(ok bool)
}

// takeAck returns a recycled (or fresh) ack box.
func (p *boxPool) takeAck() *ackBox {
	if n := len(p.acks); n > 0 {
		a := p.acks[n-1]
		p.acks = p.acks[:n-1]
		return a
	}
	a := &ackBox{}
	a.onDone = func(bool) { a.owner.pool.putAck(a) }
	return a
}

// putAck recycles a.
func (p *boxPool) putAck(a *ackBox) {
	*a = ackBox{onDone: a.onDone}
	p.acks = append(p.acks, a)
}

// forward transmits a stored message to its per-tree targets and performs
// the custody bookkeeping. targets lists next-hop picks sorted by node
// id (deterministic transmission order); it may alias the instance's
// scratch and is not retained.
func (g *GLR) forward(m *dtn.Message, targets []hopTarget) {
	now := g.n.Now()
	selfPos := g.n.Pos()
	faceState := ldt.FaceState{}
	if st := g.state(m.ID); st != nil && st.hasFace {
		faceState = st.face
	}

	if g.cfg.Custody {
		// Move Store→Cache and record every branch as pending BEFORE
		// transmitting: a full link-layer queue makes the MAC resolve a
		// frame synchronously inside Unicast, and onSendFailed must find
		// the custody state in place to return the branch to the Store
		// immediately rather than letting it ride out the cache timeout.
		g.store.MarkSent(m.ID, now)
		st := g.ensureState(m.ID)
		for _, tgt := range targets {
			st.pending |= tgt.flags
		}
		st.hasPending = true
	}

	for _, tgt := range targets {
		f := g.pool.take()
		f.owner = g
		f.Msg = *m
		f.Msg.Flags = tgt.flags
		f.Face = faceState
		f.SenderPos = selfPos
		f.SentAt = now
		bits := m.PayloadBits + geoHeaderBits
		g.n.Unicast(tgt.dst, sim.KindData, f, bits, f.onDone)
	}

	if g.cfg.Custody {
		return
	}
	// Fire and forget (§2.3.2 inverted): without custody transfer the
	// sender deletes the message as soon as it is sent — no link-layer
	// or protocol confirmation is awaited, so any copy that dies in
	// transit (collision, receiver moved away, queue overflow) is gone:
	// "delivered with high probability but without any guarantee".
	g.store.MarkSent(m.ID, now)
	sent := g.store.Ack(m.ID)
	g.forget(m.ID)
	if sent != nil {
		g.pool.putMsg(sent)
	}
}

// onSendFailed reacts to a MAC-level unicast failure (no receiver after
// retries). Under custody the failed branch returns to the Store
// immediately instead of waiting for the cache timeout; branches still in
// flight keep their pending-ack state.
func (g *GLR) onSendFailed(id dtn.MessageID, flags dtn.TreeFlags) {
	if !g.cfg.Custody {
		return
	}
	st := g.state(id)
	if st == nil || !st.hasPending {
		return
	}
	if remaining := st.pending &^ flags; remaining == 0 {
		st.pending = 0
		st.hasPending = false
	} else {
		st.pending = remaining
	}
	if m := g.store.ReturnToStore(id); m != nil {
		g.stats.CustodyReturns++
		m.Flags = flags // only the failed branches reroute
	} else if m := g.store.Get(id); m != nil {
		m.Flags |= flags // an earlier failure already returned it
	}
}

// OnFrame implements sim.Protocol.
func (g *GLR) OnFrame(payload any, from int) {
	switch f := payload.(type) {
	case *dataFrame:
		g.onData(f, from)
	case *ackBox:
		g.onAck(f.ackFrame, from)
	}
}

// onData handles an arriving message copy. f is the sender's pooled
// frame: everything kept past this call is copied out here, the message
// into a box from the pool.
func (g *GLR) onData(f *dataFrame, from int) {
	m := g.pool.takeMsg()
	*m = f.Msg
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
			g.sendAck(from, m)
		}
		st := g.ensureState(m.ID)
		if !st.delivered {
			st.delivered = true
			g.n.ReportDelivered(m)
		}
		g.pool.putMsg(m)
		return
	}

	// Custody accept: store the copy and acknowledge this tree branch.
	if g.cfg.Custody {
		g.sendAck(from, m)
	}
	if f.Face.Active {
		st := g.ensureState(m.ID)
		st.face = f.Face
		st.hasFace = true
	}
	g.addToStore(m)
}

// onAck completes custody transfer for the acknowledged tree branches.
func (g *GLR) onAck(f ackFrame, from int) {
	g.n.Locations().Update(from, f.SenderPos, g.n.Now())
	if f.DstKnown {
		g.n.Locations().Update(f.Dst, f.DstLoc, f.DstLocTime)
	}
	st := g.state(f.ID)
	if st == nil || !st.hasPending {
		return
	}
	remaining := st.pending &^ f.Flags
	if remaining != 0 {
		st.pending = remaining
		return
	}
	st.pending = 0
	st.hasPending = false
	m := g.store.Ack(f.ID)
	g.forget(f.ID)
	if m != nil {
		g.pool.putMsg(m)
	}
}

// sendAck unicasts a custody/delivery acknowledgment for the received
// copy from a pooled box, piggybacking our destination-location
// knowledge.
func (g *GLR) sendAck(to int, m *dtn.Message) {
	a := g.pool.takeAck()
	a.owner = g
	a.ackFrame = ackFrame{
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
	g.n.Unicast(to, sim.KindAck, a, ackBits, a.onDone)
}

// OnBeacon implements sim.Protocol. Node-level bookkeeping (neighbor and
// location tables) already ran; routing reacts at the next route check
// ("when ... new path emerges in the locally constructed trees, it will
// send the stored messages").
func (g *GLR) OnBeacon(sim.Beacon) {}
