package des

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// TestPendingCounter is the regression test for the O(1) Pending
// counter: it must track schedule, cancel, and dispatch exactly.
func TestPendingCounter(t *testing.T) {
	t.Run("calendar", func(t *testing.T) {
		s := NewScheduler()
		if s.Pending() != 0 {
			t.Fatalf("fresh scheduler Pending = %d, want 0", s.Pending())
		}
		ids := make([]EventID, 0, 100)
		for i := 0; i < 100; i++ {
			ids = append(ids, s.At(Time(i), func() {}))
		}
		if s.Pending() != 100 {
			t.Fatalf("Pending = %d after 100 At, want 100", s.Pending())
		}
		for i := 0; i < 30; i++ {
			s.Cancel(ids[i*3]) // cancel 30 distinct events
		}
		if s.Pending() != 70 {
			t.Fatalf("Pending = %d after 30 cancels, want 70", s.Pending())
		}
		s.Cancel(ids[0]) // double cancel: no-op
		s.Cancel(0)      // zero id: no-op
		if s.Pending() != 70 {
			t.Fatalf("Pending = %d after no-op cancels, want 70", s.Pending())
		}
		s.Run(49.5) // dispatches the live events among ids[0..49]
		live := 0
		for i := 50; i < 100; i++ {
			if i%3 != 0 || i/3 >= 30 {
				live++
			}
		}
		if s.Pending() != live {
			t.Fatalf("Pending = %d after partial run, want %d", s.Pending(), live)
		}
		s.RunAll()
		if s.Pending() != 0 {
			t.Fatalf("Pending = %d after RunAll, want 0", s.Pending())
		}
	})
}

// TestCanceledReclamation is the schedule/cancel-churn stress test for
// eager reclamation: a workload that cancels nearly everything it
// schedules must not grow the queue, so after any churn the resident
// queue holds exactly the live events — and the survivors must still
// fire in order.
func TestCanceledReclamation(t *testing.T) {
	t.Run("calendar", func(t *testing.T) {
		s := NewScheduler()
		rng := rand.New(rand.NewSource(7))
		var fired []Time
		keepEvery := 100
		kept := 0
		for i := 0; i < 20000; i++ {
			at := rng.Float64() * 1000
			id := s.At(at, func() { fired = append(fired, s.Now()) })
			if i%keepEvery == 0 {
				kept++
				continue
			}
			s.Cancel(id)
		}
		// 200 live events remain out of 20000 scheduled; eager
		// reclamation means the resident queue holds exactly those.
		if size := s.q.count; size != kept {
			t.Fatalf("queue holds %d events after churn, want exactly %d live", size, kept)
		}
		s.RunAll()
		if len(fired) != kept {
			t.Fatalf("fired %d events, want %d survivors", len(fired), kept)
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				t.Fatalf("out-of-order dispatch after compaction: %v then %v", fired[i-1], fired[i])
			}
		}
	})
}

// heapQueue is the reference event set the calendar queue is checked
// against: a binary heap ordered by eventLess, with a position index so
// resident events can be removed.
type heapQueue struct {
	evs []*event
	pos map[*event]int
}

func newHeapQueue() *heapQueue { return &heapQueue{pos: make(map[*event]int)} }

func (h *heapQueue) Len() int           { return len(h.evs) }
func (h *heapQueue) Less(i, j int) bool { return eventLess(h.evs[i], h.evs[j]) }

func (h *heapQueue) Swap(i, j int) {
	h.evs[i], h.evs[j] = h.evs[j], h.evs[i]
	h.pos[h.evs[i]] = i
	h.pos[h.evs[j]] = j
}

func (h *heapQueue) Push(x any) {
	ev := x.(*event)
	h.pos[ev] = len(h.evs)
	h.evs = append(h.evs, ev)
}

func (h *heapQueue) Pop() any {
	ev := h.evs[len(h.evs)-1]
	h.evs = h.evs[:len(h.evs)-1]
	delete(h.pos, ev)
	return ev
}

func (h *heapQueue) peek() *event {
	if len(h.evs) == 0 {
		return nil
	}
	return h.evs[0]
}

// queueKey is an event's identity in the equality script: its position in
// the dispatch order.
type queueKey struct {
	at  Time
	seq uint64
}

func keyOf(ev *event) queueKey {
	if ev == nil {
		return queueKey{at: -1}
	}
	return queueKey{ev.at, ev.seq}
}

// TestCalendarHeapDispatchEquality is the randomized oracle property of
// the event set: one script of pushes, peeks, pops, and removals of
// resident events drives the calendar queue and the reference heap, and
// every peek and pop must return the same (time, seq) event. Pushes never
// go below the last popped time — the Scheduler's invariant — but do land
// below the calendar's cursor after a peek, and the time distributions
// mix uniform spreads, bursts of simultaneous events, sub-nanosecond
// clusters, and far-future outliers so the calendar resizes, rewinds, and
// falls back to its direct search.
func TestCalendarHeapDispatchEquality(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cal, ref := newCalendarQueue(), newHeapQueue()
		calEv := map[uint64]*event{}
		refEv := map[uint64]*event{}
		var resident []uint64
		var seq uint64
		now := Time(0)
		pops := 0
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(20); {
			case op < 9: // push a small batch
				for k := 1 + rng.Intn(3); k > 0; k-- {
					var at Time
					switch rng.Intn(5) {
					case 0:
						at = now // simultaneous with the clock
					case 1:
						at = now + rng.Float64()*1e-9
					case 2:
						at = now + rng.Float64()*1e6
					default:
						at = now + rng.Float64()*50
					}
					calEv[seq] = &event{at: at, seq: seq}
					refEv[seq] = &event{at: at, seq: seq}
					cal.push(calEv[seq])
					heap.Push(ref, refEv[seq])
					resident = append(resident, seq)
					seq++
				}
			case op < 15: // pop the minimum
				got, want := cal.pop(), ref.peek()
				if want != nil {
					heap.Pop(ref)
				}
				if keyOf(got) != keyOf(want) {
					t.Fatalf("seed %d step %d: pop = %v, reference heap %v", seed, step, keyOf(got), keyOf(want))
				}
				if got != nil {
					now = got.at
					pops++
					resident = slices.DeleteFunc(resident, func(s uint64) bool { return s == got.seq })
				}
			case op < 17: // peek (moves the calendar cursor)
				if got, want := cal.peek(), ref.peek(); keyOf(got) != keyOf(want) {
					t.Fatalf("seed %d step %d: peek = %v, reference heap %v", seed, step, keyOf(got), keyOf(want))
				}
			default: // remove a random resident event
				if len(resident) == 0 {
					continue
				}
				i := rng.Intn(len(resident))
				s := resident[i]
				resident = slices.Delete(resident, i, i+1)
				cal.remove(calEv[s])
				heap.Remove(ref, ref.pos[refEv[s]])
			}
			if cal.count != ref.Len() {
				t.Fatalf("seed %d step %d: calendar holds %d events, reference heap %d", seed, step, cal.count, ref.Len())
			}
		}
		for ref.Len() > 0 {
			if got, want := cal.pop(), heap.Pop(ref).(*event); keyOf(got) != keyOf(want) {
				t.Fatalf("seed %d drain: pop = %v, reference heap %v", seed, keyOf(got), keyOf(want))
			}
			pops++
		}
		if cal.pop() != nil {
			t.Fatalf("seed %d: calendar not empty after the reference heap drained", seed)
		}
		if pops == 0 {
			t.Fatalf("seed %d popped nothing; script too hostile to be meaningful", seed)
		}
	}
}

// TestSchedulingAtInfinityPanics is the regression test for +Inf event
// times: the calendar's day map would convert +Inf to an
// implementation-defined int64 (MinInt64 on amd64), making the +Inf
// event look like the minimum so Run stopped before any finite event
// fired. At now rejects +Inf as it rejects NaN.
func TestSchedulingAtInfinityPanics(t *testing.T) {
	s := NewScheduler()
	fired := false
	s.At(5, func() { fired = true })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling at +Inf did not panic")
			}
		}()
		s.At(math.Inf(1), func() {})
	}()
	s.Run(10)
	if !fired {
		t.Error("Run(10) did not fire the event at 5")
	}
}

// TestCalendarResizeStress walks the calendar through its resize policy —
// growth past many doublings, drain back down, clustered, simultaneous,
// and sparse far-future time distributions — and checks exact dispatch
// order (time order, FIFO within an instant) throughout.
func TestCalendarResizeStress(t *testing.T) {
	cases := []struct {
		name string
		gen  func(rng *rand.Rand, i int) Time
	}{
		{"uniform", func(rng *rand.Rand, i int) Time { return rng.Float64() * 1000 }},
		{"clustered", func(rng *rand.Rand, i int) Time { return float64(i/500) + rng.Float64()*1e-6 }},
		{"simultaneous", func(rng *rand.Rand, i int) Time { return float64(i % 7) }},
		{"sparse", func(rng *rand.Rand, i int) Time { return rng.Float64() * 1e8 }},
		{"bimodal", func(rng *rand.Rand, i int) Time {
			if i%2 == 0 {
				return rng.Float64()
			}
			return 1e6 + rng.Float64()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheduler()
			rng := rand.New(rand.NewSource(11))
			const n = 5000
			want := make([]dispatchKey, 0, n)
			var got []dispatchKey
			for i := 0; i < n; i++ {
				at := tc.gen(rng, i)
				k := dispatchKey{at: at, seq: i}
				want = append(want, k)
				s.At(at, func() { got = append(got, k) })
			}
			s.RunAll()
			// Expected order: stable sort by time (stability = FIFO among
			// simultaneous events, since want is in scheduling order).
			sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("dispatch order diverged from (time, seq) order (%d events)", n)
			}
		})
	}
}

// dispatchKey identifies one scheduled event in the resize stress test.
type dispatchKey struct {
	at  Time
	seq int
}

// BenchmarkSchedulerCalendar measures a steady-state
// schedule/cancel/dispatch mix at one million pending events: each
// operation schedules two future events, cancels one live event, and
// dispatches one event (handlers Stop the scheduler, so Run delivers
// exactly one dispatch). Net queue change per operation is zero, so the
// pending population holds at exactly 2^20 throughout — the regime where
// a heap's O(log n) sift paths hurt and the calendar queue's O(1) shows.
// Cancel targets come from a small ring of recently scheduled ids: the
// ring entry being replaced was scheduled ~1024 operations earlier into a
// 2^20-deep queue, so it is still pending when canceled.
func BenchmarkSchedulerCalendar(b *testing.B) {
	s := NewScheduler()
	rng := rand.New(rand.NewSource(1))
	const population = 1 << 20 // ~1e6 pending events
	const span = 1000.0        // seconds of event spread
	const ringSize = 1 << 10
	stop := func() { s.Stop() }
	var ring [ringSize]EventID
	for i := 0; i < population; i++ {
		ring[i&(ringSize-1)] = s.After(rng.Float64()*span, stop)
	}
	// Pre-draw the schedule offsets so the measured loop is scheduler
	// operations, not rng arithmetic.
	times := make([]float64, 1<<16)
	for i := range times {
		times[i] = rng.Float64() * span
	}
	// One untimed operation first: its schedules take the population past
	// the calendar's doubling threshold, and the one-off O(n) resize of a
	// 2^20-event calendar must not land inside the measured loop, where a
	// small b.N would turn it into the whole result.
	s.Cancel(ring[ringSize-1])
	ring[ringSize-1] = s.After(times[len(times)-2], stop)
	s.After(times[len(times)-1], stop)
	s.Run(s.Now() + span)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Cancel(ring[i&(ringSize-1)])
		ring[i&(ringSize-1)] = s.After(times[(2*i)&(len(times)-1)], stop)
		s.After(times[(2*i+1)&(len(times)-1)], stop)
		s.Run(s.Now() + span) // Stop fires after one dispatch
	}
}
