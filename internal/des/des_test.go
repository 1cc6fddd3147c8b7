package des

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	for _, at := range []Time{5, 1, 3, 2, 4} {
		at := at
		s.At(at, func() { fired = append(fired, s.Now()) })
	}
	s.Run(10)
	want := []Time{1, 2, 3, 4, 5}
	if !reflect.DeepEqual(fired, want) {
		t.Errorf("fired at %v, want %v", fired, want)
	}
	if s.Now() != 10 {
		t.Errorf("clock = %v, want 10 (run horizon)", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(7, func() { order = append(order, i) })
	}
	s.RunAll()
	for i, got := range order {
		if got != i {
			t.Fatalf("simultaneous events out of scheduling order: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := NewScheduler()
	var at Time = -1
	s.At(5, func() {
		s.After(2.5, func() { at = s.Now() })
	})
	s.RunAll()
	if at != 7.5 {
		t.Errorf("After fired at %v, want 7.5", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(10, func() {})
	s.Run(100)
	defer func() {
		if recover() == nil {
			t.Error("expected panic when scheduling in the past")
		}
	}()
	s.At(5, func() {})
}

func TestCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	id := s.At(1, func() { fired = true })
	if !s.Cancel(id) {
		t.Error("Cancel should report success for a pending event")
	}
	if s.Cancel(id) {
		t.Error("double Cancel should report false")
	}
	if s.Cancel(0) {
		t.Error("Cancel of zero id should report false")
	}
	s.RunAll()
	if fired {
		t.Error("canceled event must not fire")
	}
}

func TestCancelFromHandler(t *testing.T) {
	s := NewScheduler()
	fired := false
	var id EventID
	s.At(1, func() { s.Cancel(id) })
	id = s.At(2, func() { fired = true })
	s.RunAll()
	if fired {
		t.Error("event canceled by earlier handler must not fire")
	}
}

func TestRunHorizonLeavesLaterEvents(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	s.At(1, func() { fired = append(fired, 1) })
	s.At(5, func() { fired = append(fired, 5) })
	s.At(10, func() { fired = append(fired, 10) })
	s.Run(5) // events exactly at the horizon fire
	if !reflect.DeepEqual(fired, []Time{1, 5}) {
		t.Fatalf("fired %v, want [1 5]", fired)
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
	s.Run(20)
	if !reflect.DeepEqual(fired, []Time{1, 5, 10}) {
		t.Fatalf("fired %v, want [1 5 10]", fired)
	}
}

func TestStop(t *testing.T) {
	s := NewScheduler()
	count := 0
	s.At(1, func() { count++; s.Stop() })
	s.At(2, func() { count++ })
	s.Run(10)
	if count != 1 {
		t.Errorf("count = %d, want 1 (Stop after first event)", count)
	}
	if s.Now() != 1 {
		t.Errorf("clock = %v, want 1 after Stop", s.Now())
	}
}

func TestProcessedCount(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 5; i++ {
		s.At(Time(i), func() {})
	}
	id := s.At(6, func() {})
	s.Cancel(id)
	s.RunAll()
	if s.Processed() != 5 {
		t.Errorf("Processed = %d, want 5 (canceled events excluded)", s.Processed())
	}
}

func TestHandlersCanScheduleRecursively(t *testing.T) {
	s := NewScheduler()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			s.After(0.001, recurse)
		}
	}
	s.At(0, recurse)
	s.RunAll()
	if depth != 100 {
		t.Errorf("depth = %d, want 100", depth)
	}
}

// Property: for any set of event times, firing order is the sorted order.
func TestFireOrderSortedQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		s := NewScheduler()
		times := make([]Time, len(raw))
		var fired []Time
		for i, r := range raw {
			times[i] = Time(r) / 16
			at := times[i]
			s.At(at, func() { fired = append(fired, at) })
		}
		s.RunAll()
		sort.Float64s(times)
		return reflect.DeepEqual(fired, times) || (len(fired) == 0 && len(times) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: random cancellation never causes a canceled event to fire nor a
// live event to be dropped.
func TestRandomCancellationQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		s := NewScheduler()
		n := 1 + rng.Intn(50)
		firedSet := make(map[int]bool, n)
		ids := make([]EventID, n)
		for i := 0; i < n; i++ {
			i := i
			ids[i] = s.At(Time(rng.Intn(100)), func() { firedSet[i] = true })
		}
		canceled := make(map[int]bool)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				s.Cancel(ids[i])
				canceled[i] = true
			}
		}
		s.RunAll()
		for i := 0; i < n; i++ {
			if canceled[i] && firedSet[i] {
				t.Fatal("canceled event fired")
			}
			if !canceled[i] && !firedSet[i] {
				t.Fatal("live event did not fire")
			}
		}
	}
}

func TestTickerPeriodic(t *testing.T) {
	s := NewScheduler()
	var at []Time
	var tk *Ticker
	tk = NewTicker(s, 2, 1, func() {
		at = append(at, s.Now())
		if len(at) == 4 {
			tk.Stop()
		}
	})
	s.Run(100)
	want := []Time{1, 3, 5, 7}
	if !reflect.DeepEqual(at, want) {
		t.Errorf("ticks at %v, want %v", at, want)
	}
}

func TestTickerStopIdempotent(t *testing.T) {
	s := NewScheduler()
	tk := NewTicker(s, 1, 0, func() {})
	tk.Stop()
	tk.Stop()
	s.Run(5)
}

func TestTickerInvalidInterval(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for nonpositive interval")
		}
	}()
	NewTicker(s, 0, 0, func() {})
}

func BenchmarkSchedulerChurn(b *testing.B) {
	s := NewScheduler()
	rng := rand.New(rand.NewSource(1))
	// Self-perpetuating event population of 1000.
	var spawn func()
	spawn = func() { s.After(rng.Float64(), spawn) }
	for i := 0; i < 1000; i++ {
		s.At(rng.Float64(), spawn)
	}
	b.ResetTimer()
	start := s.Processed()
	for s.Processed()-start < uint64(b.N) {
		s.Run(s.Now() + 1)
	}
}
