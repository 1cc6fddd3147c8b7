package sim

import (
	"glr/internal/fault"
	"glr/internal/geom"
)

// Restarter is implemented by protocols that support crash/restart with
// state loss (fault.Churn): Restart must drop every message, table, and
// exchange-state entry the instance holds, as a reboot would. It is
// called in place — live protocol timers keep firing across a restart
// and must tolerate the cleared state.
type Restarter interface {
	Restart()
}

// byzantineProto wraps a node's protocol as an adversary
// (fault.Byzantine): every protocol frame handed to it is silently
// dropped — custody transfers vanish without acknowledgment — while the
// node keeps beaconing (with the plan's lying advertised positions) and
// generating its own traffic, so honest neighbors still treat it as an
// attractive relay.
type byzantineProto struct {
	Protocol
}

// OnFrame silently discards the frame.
func (byzantineProto) OnFrame(any, int) {}

// Restart forwards a churn restart to the wrapped protocol when it
// supports one.
func (b byzantineProto) Restart() {
	if r, ok := b.Protocol.(Restarter); ok {
		r.Restart()
	}
}

// nodeDown reports whether the node is currently crashed. Always false
// in fault-free runs (nil plan).
func (w *World) nodeDown(id int) bool {
	return w.plan != nil && w.plan.Down(id, w.sched.Now())
}

// advertisedPos resolves the position a node claims in a beacon: its
// true position in fault-free runs, the plan's GPS-perturbed or
// Byzantine-lying position otherwise.
func (w *World) advertisedPos(id int, pos geom.Point) geom.Point {
	if w.plan == nil {
		return pos
	}
	return w.plan.AdvertisedPos(id, w.sched.Now(), pos)
}

// SetFaultHook installs a callback receiving every discrete fault
// occurrence (node crashes/restarts, region blackouts starting and
// lifting). The hook runs on the simulation goroutine after the
// occurrence takes effect and must not mutate the run. Call before Run.
func (w *World) SetFaultHook(fn func(fault.Event)) { w.faultHook = fn }

func (w *World) notifyFault(e fault.Event) {
	if w.faultHook != nil {
		w.faultHook(e)
	}
}

// scheduleFaults arms the compiled plan's discrete occurrences: one
// crash and one restore event per churn outage, and start/lift
// notifications per region-blackout window. A nil plan arms nothing, so
// a fault-free run schedules exactly the event sequence — and allocates
// exactly the event seqs — it did before the fault subsystem existed.
func (w *World) scheduleFaults() {
	if w.plan == nil {
		return
	}
	for _, o := range w.plan.Outages() {
		o := o
		w.sched.At(o.Down, func() { w.crashNode(o.Node) })
		w.sched.At(o.Up, func() { w.restoreNode(o.Node) })
	}
	for _, win := range w.plan.Windows() {
		win := win
		w.sched.At(win.Start, func() {
			w.notifyFault(fault.Event{Kind: fault.RegionBlackout, Time: w.sched.Now(), Node: -1})
		})
		w.sched.At(win.End, func() {
			w.notifyFault(fault.Event{Kind: fault.RegionBlackout, Time: w.sched.Now(), Node: -1, Restored: true})
		})
	}
}

// crashNode is a churn down-edge: the node loses its volatile state —
// neighbor and location tables, plus the protocol's buffers when it
// implements Restarter — exactly as a reboot would. While down, the
// plan's Down predicate blocks its receptions inside the medium and the
// node-level send gates silence it; messages its application generates
// while down queue in the fresh protocol state and survive the reboot.
func (w *World) crashNode(id int) {
	n := w.nodes[id]
	n.neighbors.Reset()
	n.locations.Reset()
	if r, ok := n.proto.(Restarter); ok {
		r.Restart()
	}
	w.downCount++
	w.notifyFault(fault.Event{Kind: fault.Churn, Time: w.sched.Now(), Node: id})
}

// restoreNode is the matching up-edge: the node resumes with fresh-boot
// state (cleared at the down-edge).
func (w *World) restoreNode(id int) {
	w.downCount--
	w.notifyFault(fault.Event{Kind: fault.Churn, Time: w.sched.Now(), Node: id, Restored: true})
}
