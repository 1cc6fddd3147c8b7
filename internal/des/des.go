// Package des implements the discrete-event simulation core: a simulated
// clock, a calendar-queue event core with deterministic tie-breaking, and
// cancellable timers. It replaces the NS-2 scheduler the paper's
// evaluation ran on.
//
// Simulated time is a float64 number of seconds (des.Time). This is a
// deliberate, documented deviation from the "use time.Duration" guideline:
// simulated clocks are not wall clocks, and float seconds is the standard
// currency of network discrete-event simulators (NS-2, ns-3, OMNeT++).
// Events scheduled for the same instant fire in scheduling order (a
// monotone sequence number breaks ties), so a run is bit-reproducible for a
// given seed.
//
// The event set is a calendar queue (O(1) amortized schedule/dispatch;
// see calqueue.go) dispatching in the strict (time, seq) order — seq is
// unique, so the order is total and has no implementation-defined ties.
// Its tests check it against a reference binary heap.
package des

import (
	"fmt"
	"math"
)

// Time is a simulated timestamp in seconds since the start of the run.
type Time = float64

// Handler is a callback invoked when its event fires. Handlers run on the
// single simulation goroutine; they may schedule and cancel further events.
type Handler func()

// EventID identifies a scheduled event for cancellation. The zero EventID
// is invalid and safe to Cancel (a no-op). IDs encode an arena slot and a
// per-slot generation, so Cancel resolves its event with one array index —
// no id→event map on the scheduling hot path.
type EventID uint64

type event struct {
	at   Time
	seq  uint64 // tie-break: FIFO among simultaneous events
	fn   Handler
	next *event // bucket-chain link
	slot int32  // permanent index into Scheduler.slots
	gen  uint32 // bumped on release, so stale EventIDs miss
}

// mkEventID packs an event's arena slot and generation. slot+1 keeps every
// valid id nonzero even at generation zero.
func mkEventID(slot int32, gen uint32) EventID {
	return EventID(uint64(slot+1)<<32 | uint64(gen))
}

// eventLess is the dispatch order: strictly increasing (at, seq).
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Scheduler is a discrete-event scheduler. The zero value is not usable;
// call NewScheduler.
type Scheduler struct {
	now Time
	seq uint64
	q   *calendarQueue
	// slots is the event arena: every event object ever created, indexed
	// by its permanent slot. Cancel decodes an EventID to (slot, gen) and
	// resolves it with one bounds-checked array read.
	slots []*event
	free  []*event // recycled event objects (resident in slots too)
	// slab is the tail of the current allocation block: events are carved
	// from 1024-event slabs so a large pending set lives in a few
	// contiguous blocks (fewer GC objects, better locality for bucket
	// chains) instead of a million scattered allocations.
	slab    []event
	stopped bool
	// processed counts events actually dispatched (excluding canceled).
	processed uint64
	// live counts events scheduled and not yet fired or canceled, so
	// Pending is O(1) instead of a queue scan.
	live int
}

// NewScheduler returns a calendar-queue scheduler with the clock at 0.
func NewScheduler() *Scheduler {
	return &Scheduler{q: newCalendarQueue()}
}

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Processed returns the number of events dispatched so far.
func (s *Scheduler) Processed() uint64 { return s.processed }

// Pending returns the number of events scheduled and not yet fired or
// canceled, in O(1).
func (s *Scheduler) Pending() int { return s.live }

// At schedules fn to run at absolute time t. Scheduling in the past (t <
// Now), at NaN, or at +Inf panics: each is a logic error in a
// discrete-event model, and the calendar queue's time-to-day map is only
// defined for finite times.
func (s *Scheduler) At(t Time, fn Handler) EventID {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, s.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 1) {
		panic(fmt.Sprintf("des: scheduling event at non-finite time %v", t))
	}
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		if len(s.slab) == 0 {
			s.slab = make([]event, 1024)
		}
		ev = &s.slab[0]
		s.slab = s.slab[1:]
		ev.slot = int32(len(s.slots))
		s.slots = append(s.slots, ev)
	}
	ev.at = t
	ev.seq = s.seq
	ev.fn = fn
	s.seq++
	s.q.push(ev)
	s.live++
	return mkEventID(ev.slot, ev.gen)
}

// release returns a popped event to the free list. Events are
// single-use: once popped (dispatched or canceled) nothing else holds a
// reference, so recycling them removes the dominant per-event
// allocation from simulation hot loops. Bumping the generation
// invalidates every EventID minted for the event's previous life, so a
// stale Cancel misses instead of revoking the slot's next tenant.
func (s *Scheduler) release(ev *event) {
	ev.fn = nil // drop the closure reference while pooled
	ev.gen++
	s.free = append(s.free, ev)
}

// After schedules fn to run d seconds from now. Negative d panics.
func (s *Scheduler) After(d float64, fn Handler) EventID {
	return s.At(s.now+d, fn)
}

// Cancel revokes a scheduled event. Canceling an already-fired, already-
// canceled, or zero id is a no-op. It reports whether an event was actually
// revoked.
//
// Canceled events are unlinked from the queue and reclaimed immediately
// (they used to sit in the heap until dispatch reached them), so a
// schedule/cancel churn workload cannot grow the queue at all: the
// resident queue holds exactly the live events.
func (s *Scheduler) Cancel(id EventID) bool {
	slot := int(id>>32) - 1
	if slot < 0 || slot >= len(s.slots) {
		return false
	}
	ev := s.slots[slot]
	// A generation mismatch means the id belongs to an earlier life of
	// this slot: the event already fired or was already canceled.
	if ev.gen != uint32(id) {
		return false
	}
	s.q.remove(ev)
	s.live--
	s.release(ev)
	return true
}

// Stop makes Run return after the current event's handler completes.
func (s *Scheduler) Stop() { s.stopped = true }

// Run dispatches events in (time, seq) order until the queue empties, the
// clock passes until, or Stop is called. Events scheduled exactly at until
// still fire; the clock never exceeds until.
func (s *Scheduler) Run(until Time) {
	s.stopped = false
	for !s.stopped {
		ev := s.q.peek()
		if ev == nil || ev.at > until {
			break
		}
		s.q.pop()
		s.now = ev.at
		s.processed++
		s.live--
		fn := ev.fn
		s.release(ev)
		fn()
	}
	// Advance the clock to the horizon only on a natural finish; after
	// Stop (or an unbounded RunAll) the clock stays at the last
	// dispatched event.
	if !s.stopped && s.now < until && !math.IsInf(until, 1) {
		s.now = until
	}
}

// RunAll dispatches every remaining event regardless of time. Useful in
// tests; simulations should prefer Run with a horizon.
func (s *Scheduler) RunAll() { s.Run(math.Inf(1)) }
