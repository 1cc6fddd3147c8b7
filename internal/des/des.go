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

	"glr/internal/freelist"
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
	// processed counts events dispatched.
	processed uint64
	// live counts events scheduled and not yet fired, so Pending is O(1)
	// instead of a queue scan.
	live int
	// events recycles dispatched events. Fresh ones are carved from
	// arrays, so a large pending set lives in a few contiguous blocks
	// (fewer GC objects, better locality for bucket chains) instead of
	// a million scattered allocations.
	events freelist.List[event]
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
	s.push(t, s.seq, fn)
	s.seq++
}

// push checks t as At does and queues fn at (t, seq).
func (s *Scheduler) push(t Time, seq uint64, fn Handler) {
	s.check(t)
	ev := s.events.Take()
	ev.at = t
	ev.seq = seq
	ev.fn = fn
	s.q.push(ev)
	s.live++
}

// check panics unless t is a time an event may be scheduled at (see At).
func (s *Scheduler) check(t Time) {
	if !(t >= s.now && t <= math.MaxFloat64) { // NaN fails both
		s.reject(t)
	}
}

// reject panics with the reason t cannot be scheduled.
func (s *Scheduler) reject(t Time) {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, s.now))
	}
	panic(fmt.Sprintf("des: scheduling event at non-finite time %v", t))
}

// Series schedules n events from one pending event: item i runs fn(i)
// at time at(i), for at nondecreasing in i. It dispatches exactly as n
// At calls in item order would: the series reserves their n sequence
// numbers now, and when item i fires it queues item i+1 under the next
// one. The items are sorted, so the pending item is always the earliest
// outstanding one and no other event can fall between them differently.
// Each time is checked as At checks it, and out-of-order times panic,
// all before anything is queued. Pending counts the series as one event
// until its last item fires.
func (s *Scheduler) Series(n int, at func(int) Time, fn func(int)) {
	prev := s.now
	for i := range n {
		t := at(i)
		s.check(t)
		if t < prev {
			panic(fmt.Sprintf("des: series item %d at %v before item %d at %v", i, t, i-1, prev))
		}
		prev = t
	}
	if n == 0 {
		return
	}
	r := &series{s: s, at: at, fn: fn, n: n, base: s.seq}
	r.fire = r.step
	s.seq += uint64(n)
	s.push(at(0), r.base, r.fire)
}

// series is the state of one Series: the next item to fire and the
// sequence number reserved for item 0.
type series struct {
	s    *Scheduler
	at   func(int) Time
	fn   func(int)
	fire Handler // step bound once (rescheduling a method value would allocate)
	base uint64
	next int
	n    int
}

// step runs the next item after queueing the one after it.
func (r *series) step() {
	i := r.next
	r.next++
	if r.next < r.n {
		r.s.push(r.at(r.next), r.base+uint64(r.next), r.fire)
	}
	r.fn(i)
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
		// Events are single-use: once popped nothing else holds a
		// reference, so recycling them removes the dominant per-event
		// allocation from simulation hot loops.
		fn := ev.fn
		ev.fn = nil // drop the closure reference while pooled
		s.events.Put(ev)
		fn()
	}
	// Advance the clock to a finite horizon; after an unbounded run the
	// clock stays at the last dispatched event.
	if s.now < until && !math.IsInf(until, 1) {
		s.now = until
	}
}
