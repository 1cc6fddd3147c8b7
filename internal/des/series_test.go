package des

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// scheduler is what the series script drives: the calendar Scheduler,
// or refScheduler, its reference.
type scheduler interface {
	Now() Time
	At(t Time, fn Handler)
	Series(n int, at func(int) Time, fn func(int))
}

// refScheduler is the reference a Series is checked against: a binary
// heap of events where Series is n At calls in item order.
type refScheduler struct {
	now Time
	seq uint64
	q   heapQueue
}

func (r *refScheduler) Now() Time { return r.now }

func (r *refScheduler) At(t Time, fn Handler) {
	heap.Push(&r.q, &event{at: t, seq: r.seq, fn: fn})
	r.seq++
}

func (r *refScheduler) Series(n int, at func(int) Time, fn func(int)) {
	for i := range n {
		r.At(at(i), func() { fn(i) })
	}
}

func (r *refScheduler) Run() {
	for r.q.Len() > 0 {
		ev := heap.Pop(&r.q).(*event)
		r.now = ev.at
		ev.fn()
	}
}

// seriesScript runs one randomized script on s and returns the log of
// what fired, in dispatch order. The script opens a few series whose
// sorted times often tie, schedules plain events at the same instants
// before and after them, and lets handlers schedule more events and open
// further series at their own instant. Every draw comes from one stream,
// so two schedulers that dispatch alike draw alike.
func seriesScript(s scheduler, run func(), seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var log []string
	instants := []Time{0, 1, 1, 2.5, 3, 3, 3, 7}
	draw := func() Time { return instants[rng.Intn(len(instants))] }
	var handler func(label string) Handler
	var openSeries func(label string, from Time)
	handler = func(label string) Handler {
		return func() {
			log = append(log, fmt.Sprintf("%v %s", s.Now(), label))
			if len(log) > 400 {
				return
			}
			switch rng.Intn(6) {
			case 0: // a child at this very instant
				s.At(s.Now(), handler(label+".now"))
			case 1:
				s.At(s.Now()+draw(), handler(label+".later"))
			case 2:
				openSeries(label+".s", s.Now())
			}
		}
	}
	openSeries = func(label string, from Time) {
		n := rng.Intn(6)
		times := make([]Time, n)
		for i := range times {
			times[i] = from + draw()
		}
		sort.Float64s(times)
		s.Series(n, func(i int) Time { return times[i] }, func(i int) {
			handler(fmt.Sprintf("%s[%d]", label, i))()
		})
	}
	for k := range 3 + rng.Intn(3) {
		s.At(draw(), handler(fmt.Sprintf("a%d", k)))
		openSeries(fmt.Sprintf("S%d", k), 0)
		s.At(draw(), handler(fmt.Sprintf("b%d", k)))
	}
	run()
	return log
}

// TestSeriesMatchesAtCalls is the property of Series: on random scripts
// with tied times, plain events at the series' instants and events
// scheduled at the same instant from inside handlers, the calendar
// Scheduler with Series dispatches exactly what the reference heap
// dispatches with n At calls per series.
func TestSeriesMatchesAtCalls(t *testing.T) {
	fired := 0
	for seed := int64(0); seed < 200; seed++ {
		s := NewScheduler()
		got := seriesScript(s, func() { s.Run(math.Inf(1)) }, seed)
		ref := &refScheduler{}
		want := seriesScript(ref, ref.Run, seed)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Series dispatched\n%v\nreference heap\n%v", seed, got, want)
		}
		if s.Processed() != uint64(len(got)) || s.Pending() != 0 {
			t.Fatalf("seed %d: Processed %d, Pending %d after %d dispatches", seed, s.Processed(), s.Pending(), len(got))
		}
		fired += len(got)
	}
	if fired < 2000 {
		t.Fatalf("scripts fired only %d events; too few to test Series", fired)
	}
}

// TestSeriesEdgeSizes: an empty series schedules nothing and reserves no
// sequence number; a one-item series is one At call.
func TestSeriesEdgeSizes(t *testing.T) {
	s := NewScheduler()
	s.Series(0, func(int) Time { panic("at called for an empty series") }, func(int) { t.Fatal("empty series fired") })
	if s.Pending() != 0 || s.seq != 0 {
		t.Fatalf("empty series: Pending %d, seq %d; want 0, 0", s.Pending(), s.seq)
	}
	var log []string
	s.At(2, func() { log = append(log, "before") })
	s.Series(1, func(int) Time { return 2 }, func(i int) { log = append(log, fmt.Sprint("item", i)) })
	s.At(2, func() { log = append(log, "after") })
	if s.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", s.Pending())
	}
	s.Run(10)
	if want := []string{"before", "item0", "after"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("fired %v, want %v", log, want)
	}
}

// TestSeriesRejectsBadTimes: a series item in the past, at NaN or at
// +Inf panics as At would, and so does an item before its predecessor;
// the panic comes before anything is queued.
func TestSeriesRejectsBadTimes(t *testing.T) {
	cases := map[string][]Time{
		"past":         {4, 6},
		"nan":          {6, math.NaN()},
		"+inf":         {6, 7, math.Inf(1)},
		"out of order": {6, 8, 7},
	}
	for name, times := range cases {
		t.Run(name, func(t *testing.T) {
			s := NewScheduler()
			s.Run(5)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("Series at %v did not panic", times)
					}
				}()
				s.Series(len(times), func(i int) Time { return times[i] }, func(int) {})
			}()
			if s.Pending() != 0 || s.seq != 0 {
				t.Errorf("a rejected series left Pending %d, seq %d", s.Pending(), s.seq)
			}
		})
	}
}
