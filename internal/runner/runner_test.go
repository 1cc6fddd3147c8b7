package runner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"glr/internal/metrics"
)

// point sweeps seeds 0..runs-1 through run.
func point[T any](runs int, run func(ctx context.Context, seed int64) (T, error)) []Point[T] {
	return []Point[T]{{Base: 0, Runs: runs, Run: run}}
}

// counting reports each seed as Generated and counts the runs.
func counting(ran *atomic.Int32) func(context.Context, int64) (metrics.Report, error) {
	return func(_ context.Context, seed int64) (metrics.Report, error) {
		ran.Add(1)
		return metrics.Report{Generated: int(seed)}, nil
	}
}

func TestRunPreservesJobOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		var ran atomic.Int32
		out, err := Sweep(context.Background(), workers, point(20, counting(&ran)), nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ran.Load() != 20 {
			t.Fatalf("workers=%d: ran %d of 20 runs", workers, ran.Load())
		}
		for i, rep := range out[0] {
			if rep.Generated != i {
				t.Fatalf("workers=%d: out[0][%d].Generated = %d", workers, i, rep.Generated)
			}
		}
	}
}

// TestSweepPointsSeedOrder: points of unequal run counts share one pool,
// each point's results come back in seed order from its own base, and
// the sweep is identical at one and four workers.
func TestSweepPointsSeedOrder(t *testing.T) {
	type res struct {
		point int
		seed  int64
	}
	points := []Point[res]{{Base: 10, Runs: 3}, {Base: 1, Runs: 1}, {Base: 100, Runs: 5}, {Base: 7, Runs: 0}}
	for p := range points {
		p := p
		points[p].Run = func(_ context.Context, seed int64) (res, error) {
			time.Sleep(time.Duration(seed%3) * time.Millisecond) // scramble completion order
			return res{p, seed}, nil
		}
	}
	one, err := Sweep(context.Background(), 1, points, nil)
	if err != nil {
		t.Fatal(err)
	}
	four, err := Sweep(context.Background(), 4, points, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("one worker %v, four workers %v", one, four)
	}
	for p, pt := range points {
		if len(one[p]) != pt.Runs {
			t.Fatalf("point %d: %d results, want %d", p, len(one[p]), pt.Runs)
		}
		for r, got := range one[p] {
			if want := (res{p, pt.Base + int64(r)}); got != want {
				t.Fatalf("out[%d][%d] = %v, want %v", p, r, got, want)
			}
		}
	}
}

func TestSeeds(t *testing.T) {
	if got := Seeds(5, 3); !reflect.DeepEqual(got, []int64{5, 6, 7}) {
		t.Fatalf("Seeds(5, 3) = %v", got)
	}
	if got := Seeds(5, 0); len(got) != 0 {
		t.Fatalf("Seeds(5, 0) = %v", got)
	}
}

func TestRunEmpty(t *testing.T) {
	out, err := Sweep[metrics.Report](context.Background(), 4, nil, nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty sweep: %v, %v", out, err)
	}
}

func TestRunPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	run := func(_ context.Context, seed int64) (metrics.Report, error) {
		if seed == 1 {
			return metrics.Report{}, boom
		}
		return metrics.Report{}, nil
	}
	if _, err := Sweep(context.Background(), 1, point(3, run), nil); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
}

func TestRunErrorStopsClaiming(t *testing.T) {
	var ran atomic.Int32
	run := func(_ context.Context, seed int64) (metrics.Report, error) {
		ran.Add(1)
		if seed == 0 {
			return metrics.Report{}, fmt.Errorf("early failure")
		}
		return metrics.Report{}, nil
	}
	if _, err := Sweep(context.Background(), 1, point(50, run), nil); err == nil {
		t.Fatal("error swallowed")
	}
	if got := ran.Load(); got != 1 {
		t.Fatalf("sequential pool ran %d runs after failure, want 1", got)
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	if _, err := Sweep(ctx, 2, point(8, counting(&ran)), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("pre-canceled pool still ran %d runs", ran.Load())
	}
}

func TestRunCancellationMidFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	run := func(ctx context.Context, seed int64) (metrics.Report, error) {
		ran.Add(1)
		if seed == 0 {
			cancel()
		}
		// Honour ctx like sim.World.RunContext does.
		select {
		case <-ctx.Done():
			return metrics.Report{}, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		return metrics.Report{}, nil
	}
	if _, err := Sweep(ctx, 2, point(16, run), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if got := ran.Load(); got == 16 {
		t.Fatalf("cancellation did not stop the pool (all %d runs ran)", got)
	}
}

// TestFailureAbortsInFlightJobs: the first run error must cancel the
// context handed to in-flight siblings, not just stop new claims.
func TestFailureAbortsInFlightJobs(t *testing.T) {
	boom := errors.New("boom")
	started := make(chan struct{})
	run := func(ctx context.Context, seed int64) (metrics.Report, error) {
		if seed == 1 {
			close(started)
			return metrics.Report{}, boom
		}
		<-started // wait until the failing run is definitely running
		select {
		case <-ctx.Done():
			return metrics.Report{}, ctx.Err()
		case <-time.After(5 * time.Second):
			return metrics.Report{}, errors.New("in-flight run was not aborted")
		}
	}
	begin := time.Now()
	_, err := Sweep(context.Background(), 2, point(2, run), nil)
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the genuine run error", err)
	}
	if elapsed := time.Since(begin); elapsed > 2*time.Second {
		t.Fatalf("failure took %v to abort the in-flight run", elapsed)
	}
}

// TestLateCancelKeepsCompletedResults: a context that expires after the
// last run has already finished must not discard the completed sweep.
func TestLateCancelKeepsCompletedResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	run := func(_ context.Context, seed int64) (metrics.Report, error) {
		if seed == 3 {
			cancel() // expires as the final run completes
		}
		return metrics.Report{Generated: int(seed)}, nil
	}
	out, err := Sweep(ctx, 1, point(4, run), nil)
	if err != nil {
		t.Fatalf("completed sweep discarded: %v", err)
	}
	for i, rep := range out[0] {
		if rep.Generated != i {
			t.Fatalf("out[0][%d].Generated = %d", i, rep.Generated)
		}
	}
}

func TestNilContext(t *testing.T) {
	var ran atomic.Int32
	if _, err := Sweep(nil, 1, point(1, counting(&ran)), nil); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 1 {
		t.Fatal("nil-context sweep skipped the run")
	}
}

// TestRunNotify: every successful run is counted exactly once, so the
// counts notify receives are 1..successes; failed runs never notify.
func TestRunNotify(t *testing.T) {
	boom := errors.New("boom")
	run := func(_ context.Context, seed int64) (int, error) {
		if seed == 11 {
			return 0, boom
		}
		return int(seed * seed), nil
	}
	var mu sync.Mutex
	seen := map[int]int{}
	notify := func(done int) {
		mu.Lock()
		seen[done]++
		mu.Unlock()
	}
	results, err := Sweep(context.Background(), 1, point(12, run), notify)
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if results != nil {
		t.Fatalf("failed sweep returned results: %v", results)
	}
	for done, n := range seen {
		if n != 1 || done < 1 || done > 11 {
			t.Fatalf("count %d notified %d times", done, n)
		}
	}
	if len(seen) != 11 {
		t.Fatalf("notified %d of 11 successful runs", len(seen))
	}
}

// TestRunGenericResult: the pool is generic over the result type.
func TestRunGenericResult(t *testing.T) {
	type pair struct{ a, b int }
	run := func(_ context.Context, seed int64) (pair, error) { return pair{int(seed), 2 * int(seed)}, nil }
	out, err := Sweep(context.Background(), 3, point(5, run), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range out[0] {
		if p != (pair{i, 2 * i}) {
			t.Fatalf("out[0][%d] = %v", i, p)
		}
	}
}
