// Package des implements the discrete-event simulation core: a simulated
// clock, a calendar-queue event core with deterministic tie-breaking, and
// periodic tickers. It replaces the NS-2 scheduler the paper's evaluation
// ran on.
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
// single simulation goroutine; they may schedule further events.
type Handler func()

type event struct {
	at   Time
	seq  uint64 // tie-break: FIFO among simultaneous events
	fn   Handler
	next *event // bucket-chain link
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
	// free holds dispatched event objects for reuse.
	free []*event
	// slab is the tail of the current allocation block: events are carved
	// from 1024-event slabs so a large pending set lives in a few
	// contiguous blocks (fewer GC objects, better locality for bucket
	// chains) instead of a million scattered allocations.
	slab []event
	// processed counts events dispatched.
	processed uint64
	// live counts events scheduled and not yet fired, so Pending is O(1)
	// instead of a queue scan.
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

// Pending returns the number of events scheduled and not yet fired, in
// O(1).
func (s *Scheduler) Pending() int { return s.live }

// At schedules fn to run at absolute time t. Scheduling in the past (t <
// Now), at NaN, or at +Inf panics: each is a logic error in a
// discrete-event model, and the calendar queue's time-to-day map is only
// defined for finite times.
func (s *Scheduler) At(t Time, fn Handler) {
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
	}
	ev.at = t
	ev.seq = s.seq
	ev.fn = fn
	s.seq++
	s.q.push(ev)
	s.live++
}

// release returns a popped event to the free list. Events are
// single-use: once popped nothing else holds a reference, so recycling
// them removes the dominant per-event allocation from simulation hot
// loops.
func (s *Scheduler) release(ev *event) {
	ev.fn = nil // drop the closure reference while pooled
	s.free = append(s.free, ev)
}

// After schedules fn to run d seconds from now. Negative d panics.
func (s *Scheduler) After(d float64, fn Handler) {
	s.At(s.now+d, fn)
}

// Run dispatches events in (time, seq) order until the queue empties or
// the clock passes until. Events scheduled exactly at until still fire;
// the clock never exceeds until.
func (s *Scheduler) Run(until Time) {
	for {
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
	// Advance the clock to a finite horizon; after an unbounded run the
	// clock stays at the last dispatched event.
	if s.now < until && !math.IsInf(until, 1) {
		s.now = until
	}
}
