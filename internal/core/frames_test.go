package core

import (
	"testing"

	"glr/internal/dtn"
	"glr/internal/geom"
	"glr/internal/sim"
)

// frameWorld builds a tiny static world for white-box frame handling
// tests and returns it with the per-node protocol instances.
func frameWorld(t *testing.T, cfg Config) (*sim.World, []*GLR) {
	t.Helper()
	s := sim.DefaultScenario(250)
	s.Seed = 71
	s.N = 4
	s.SimTime = 100
	s.Mobility = sim.MobilityStatic
	s.Traffic = nil
	return buildProbedWorld(t, s, cfg)
}

func TestOnAckPartialBranches(t *testing.T) {
	w, instances := frameWorld(t, DefaultConfig())
	g := instances[0]
	w.Scheduler().Run(0.1)

	m := &dtn.Message{ID: dtn.MessageID{Src: 0, Seq: 0}, Dst: 3, Flags: dtn.FlagMax | dtn.FlagMin}
	rec := g.table.add(m, &g.pool.recs)
	g.table.markSent(rec, 0)
	rec.pending = dtn.FlagMax | dtn.FlagMin
	rec.hasPending = true

	// Ack for just the Max branch: message stays cached awaiting Min.
	g.onAck(ackFrame{ID: m.ID, Dst: 3, Flags: dtn.FlagMax, SenderPos: geom.Pt(0, 0)}, 1)
	if len(g.table.cache) != 1 {
		t.Fatal("message must stay cached until every branch acks")
	}
	if rec.pending != dtn.FlagMin {
		t.Fatalf("pending = %v, want min", rec.pending)
	}
	// Ack for the remaining branch releases it, state and all.
	g.onAck(ackFrame{ID: m.ID, Dst: 3, Flags: dtn.FlagMin, SenderPos: geom.Pt(0, 0)}, 2)
	if g.table.total() != 0 || g.table.get(m.ID) != nil {
		t.Fatal("fully-acked message must leave custody")
	}
}

// An ack completing the branches of a copy that a failed branch already
// returned to the Store keeps the copy and clears its routing state.
func TestOnAckAfterReturnKeepsCopy(t *testing.T) {
	w, instances := frameWorld(t, DefaultConfig())
	g := instances[0]
	w.Scheduler().Run(0.1)
	m := &dtn.Message{ID: dtn.MessageID{Src: 0, Seq: 3}, Dst: 3, Flags: dtn.FlagMax | dtn.FlagMin}
	rec := g.table.add(m, &g.pool.recs)
	g.table.markSent(rec, 0)
	rec.pending = dtn.FlagMax | dtn.FlagMin
	rec.hasPending = true
	rec.hasStuck, rec.stuckSince = true, 0.05

	g.onSendFailed(m.ID, dtn.FlagMax)
	g.onAck(ackFrame{ID: m.ID, Dst: 3, Flags: dtn.FlagMin, SenderPos: geom.Pt(0, 0)}, 2)
	if g.table.get(m.ID) != rec || len(g.table.store) != 1 {
		t.Fatal("the returned copy must stay in the Store")
	}
	if rec.msgState != (msgState{}) || rec.msg.Flags != dtn.FlagMax {
		t.Fatalf("state %+v flags %v, want zero state and the failed max branch", rec.msgState, rec.msg.Flags)
	}
}

func TestOnAckUnknownMessageIgnored(t *testing.T) {
	_, instances := frameWorld(t, DefaultConfig())
	g := instances[0]
	g.onAck(ackFrame{ID: dtn.MessageID{Src: 9, Seq: 9}, Flags: dtn.FlagMax}, 1)
	if g.table.total() != 0 {
		t.Fatal("stray ack must not create state")
	}
}

func TestOnDataDeliversAndAcks(t *testing.T) {
	s := sim.DefaultScenario(250)
	s.Seed = 71
	s.N = 4
	s.SimTime = 100
	s.Mobility = sim.MobilityStatic
	// The world plans the message, so it has a rank, but generates it
	// only after the test is done.
	s.Traffic = []sim.TrafficItem{{Src: 0, Dst: 2, At: 90}}
	w, instances := buildProbedWorld(t, s, DefaultConfig())
	g := instances[2]
	w.Scheduler().Run(0.1)
	msg := dtn.Message{ID: dtn.MessageID{Src: 0, Seq: 0}, Dst: 2, PayloadBits: 800}
	g.onData(&dataFrame{Msg: msg, SenderPos: geom.Pt(1, 1), SentAt: 0.05}, 0)
	if !g.delivered.Has(g.n.MessageRanks().Rank(msg.ID)) {
		t.Fatal("destination must record the delivery")
	}
	if g.table.get(msg.ID) != nil {
		t.Fatal("a delivery must leave no per-message state")
	}
	// A duplicate copy must not double-report: GLR suppresses it at the
	// protocol level, so the collector records exactly one delivery.
	g.onData(&dataFrame{Msg: msg, SenderPos: geom.Pt(1, 1), SentAt: 0.06}, 1)
	rep := w.Collector().Report()
	if rep.Delivered != 1 {
		t.Errorf("delivered = %d, want 1", rep.Delivered)
	}
	if g.table.total() != 0 {
		t.Error("the destination must not store copies of its own messages")
	}
}

func TestOnDataRelayStoresAndLearnsLocations(t *testing.T) {
	w, instances := frameWorld(t, DefaultConfig())
	g := instances[1]
	w.Scheduler().Run(0.1)
	msg := dtn.Message{
		ID: dtn.MessageID{Src: 0, Seq: 1}, Dst: 3, PayloadBits: 800,
		DstLoc: geom.Pt(42, 7), DstLocTime: 0.04, DstLocKnown: true,
	}
	g.onData(&dataFrame{Msg: msg, SenderPos: geom.Pt(9, 9), SentAt: 0.05}, 0)
	if g.table.total() != 1 {
		t.Fatal("relay must store the copy")
	}
	// Diffusion: the relay learned both the sender's position and the
	// destination estimate carried in the header.
	if e, ok := g.n.Locations().Get(0); !ok || !e.Pos.Eq(geom.Pt(9, 9)) {
		t.Error("sender position not learned")
	}
	if e, ok := g.n.Locations().Get(3); !ok || !e.Pos.Eq(geom.Pt(42, 7)) {
		t.Error("destination estimate not diffused into the table")
	}
}

func TestOnSendFailedReturnsBranchToStore(t *testing.T) {
	w, instances := frameWorld(t, DefaultConfig())
	g := instances[0]
	w.Scheduler().Run(0.1)
	m := &dtn.Message{ID: dtn.MessageID{Src: 0, Seq: 2}, Dst: 3, Flags: dtn.FlagMax | dtn.FlagMin}
	rec := g.table.add(m, &g.pool.recs)
	g.table.markSent(rec, 0)
	rec.pending = dtn.FlagMax | dtn.FlagMin
	rec.hasPending = true

	g.onSendFailed(m.ID, dtn.FlagMin)
	if len(g.table.store) != 1 {
		t.Fatal("failed branch must return to the Store")
	}
	if got := rec.msg.Flags; got != dtn.FlagMin {
		t.Errorf("returned flags = %v, want min only", got)
	}
	if rec.pending != dtn.FlagMax {
		t.Errorf("pending = %v, want max", rec.pending)
	}
	// The other branch fails too: flags merge on the stored copy.
	g.onSendFailed(m.ID, dtn.FlagMax)
	if got := rec.msg.Flags; got != dtn.FlagMax|dtn.FlagMin {
		t.Errorf("merged flags = %v", got)
	}
}

func TestRefreshDstLocRegimes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Location = LocAllKnow
	w, instances := frameWorld(t, cfg)
	g := instances[0]
	w.Scheduler().Run(0.1)
	m := &dtn.Message{ID: dtn.MessageID{Src: 0, Seq: 3}, Dst: 2}
	g.refreshDstLoc(m)
	if !m.DstLocKnown {
		t.Fatal("all-know regime must stamp the location")
	}
	if !m.DstLoc.Eq(w.Node(2).Pos()) {
		t.Error("all-know regime must use the oracle position")
	}

	// Source-knows regime: the table (not the oracle) feeds refreshes.
	cfg2 := DefaultConfig()
	_, inst2 := frameWorld(t, cfg2)
	g2 := inst2[0]
	m2 := &dtn.Message{ID: dtn.MessageID{Src: 0, Seq: 4}, Dst: 2}
	g2.n.Locations().Update(2, geom.Pt(123, 45), 9)
	g2.refreshDstLoc(m2)
	if !m2.DstLoc.Eq(geom.Pt(123, 45)) {
		t.Error("table entry should refresh the estimate")
	}
}
