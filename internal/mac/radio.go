package mac

import (
	"glr/internal/des"
)

// Radio is one station on the medium. All methods must be called from the
// simulation goroutine (i.e. from within event handlers).
type Radio struct {
	id     int
	medium *Medium
	onRecv ReceiveFunc
	onSent SentFunc

	queue        []*Frame // FIFO, bounded by queueLen
	transmitting bool
	attemptArmed bool        // a backoff/deferral attempt event is pending
	attemptFn    des.Handler // shared disarm-and-retry handler (one alloc per radio)
	cw           int         // current contention window in slots
	retries      int         // retries consumed by the head-of-line frame
	// recent holds this radio's own latest airing intervals for
	// half-duplex checks; on each new airing it drops the entries that
	// ended more than Medium.retain ago. A radio airs one frame at a
	// time, so only a handful of entries remain.
	recent []airing
}

// Send enqueues a frame for transmission. It reports false when the
// link-layer queue is full and the frame was dropped (the paper's queue
// length is 150 frames).
func (r *Radio) Send(f *Frame) bool {
	m := r.medium
	if len(r.queue) >= queueLen {
		m.stats.QueueDrops++
		if r.onSent != nil {
			r.onSent(f, false)
		}
		return false
	}
	f.Src = r.id
	r.queue = append(r.queue, f)
	m.stats.FramesQueued++
	r.tryTransmit()
	return true
}

// tryTransmit attempts to put the head-of-line frame on the air, deferring
// with backoff when the channel is sensed busy.
func (r *Radio) tryTransmit() {
	m := r.medium
	if r.transmitting || r.attemptArmed || len(r.queue) == 0 {
		return
	}
	if busy, until := m.busyFor(m.pos(r.id)); busy {
		m.stats.BusyDeferrals++
		r.deferUntil(until)
		return
	}
	r.startTransmission()
}

// armAttempt schedules the shared disarm-and-retry handler after wait
// seconds. The handler closure is allocated once per radio (see
// Medium.AddRadio), not per deferral — deferrals are a per-frame hot
// path under contention.
func (r *Radio) armAttempt(wait float64) {
	r.attemptArmed = true
	r.medium.sched.After(wait, r.attemptFn)
}

// deferUntil schedules a fresh channel sense shortly after the sensed
// occupancy clears, plus DIFS and a random backoff.
func (r *Radio) deferUntil(until des.Time) {
	m := r.medium
	r.armAttempt((until - m.sched.Now()) + difs + float64(m.rng.IntN(r.cw))*slotTime)
}

// backoffRetry schedules a retransmission attempt after a collision, with
// an exponentially grown contention window.
func (r *Radio) backoffRetry() {
	m := r.medium
	r.cw = min(2*r.cw, cwMax)
	r.armAttempt(difs + float64(1+m.rng.IntN(r.cw))*slotTime)
}

// startTransmission puts the head-of-line frame on the air.
func (r *Radio) startTransmission() {
	m := r.medium
	f := r.queue[0]
	r.transmitting = true
	now := m.sched.Now()
	t := m.takeTx()
	t.from = r
	t.frame = f
	t.start = now
	t.end = now + m.frameAirtime(f)
	t.pos = m.pos(r.id)
	t.hasRx = false
	if f.Dst != Broadcast && f.Dst >= 0 && f.Dst < len(m.radios) {
		// Virtual carrier sense (RTS/CTS): the receiver's surroundings
		// also treat the channel as busy for this airing.
		t.rxPos = m.pos(f.Dst)
		t.hasRx = true
	}
	if keep := t.end - t.start + slotTime; keep > m.retain {
		m.retain = keep
	}
	m.active = append(m.active, t)
	m.indexTransmission(t)
	m.stats.Transmissions++
	m.scheduleEnd(t)
}

// endTransmission resolves the airing outcome and advances the queue.
func (r *Radio) endTransmission(t *transmission) {
	m := r.medium
	r.transmitting = false
	dstOK := m.finishTransmission(t)
	f := t.frame

	if f.Dst == Broadcast {
		// Broadcast frames are fire-and-forget.
		r.completeHead(f, true)
		return
	}
	if dstOK {
		r.completeHead(f, true)
		return
	}
	// Unicast failure: retry within budget.
	if r.retries < maxRetries {
		r.retries++
		r.backoffRetry()
		return
	}
	m.stats.UnicastFailures++
	r.completeHead(f, false)
}

// completeHead pops the head-of-line frame, reports its outcome, resets
// contention state, and moves on — after SIFS, modelling ack turnaround.
func (r *Radio) completeHead(f *Frame, ok bool) {
	// Shift rather than reslice so the queue's backing array keeps its
	// capacity (queue[1:] would strand one slot per completed frame and
	// force a reallocation on the next Send).
	n := copy(r.queue, r.queue[1:])
	r.queue[n] = nil
	r.queue = r.queue[:n]
	r.retries = 0
	r.cw = cwMin
	if r.onSent != nil {
		r.onSent(f, ok)
	}
	if len(r.queue) > 0 {
		r.armAttempt(sifs)
	}
}
