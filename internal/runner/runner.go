// Package runner is the one seed sweep behind every replication in the
// repo: the public glr.Runner and the matrix driver of internal/matrix,
// which runs both the atlas and the paper experiments. A
// sweep is a list of points, each a base seed, a run count and a run
// function; every (point, seed) pair shares one bounded worker pool,
// results come back per point in seed order, and a context cancels both
// queued runs and (via sim.World.RunContext) runs in flight. Sweep is
// generic over the result type, so callers that need more than a
// metrics.Report per run — the matrix driver carries an observer time
// series alongside each result — share the same claiming, cancellation,
// and error-ordering machinery.
package runner

import (
	"context"
	"errors"
	"runtime"
	"sync"
)

// Point is one replication sweep: Runs runs of Run with seeds
// Base..Base+Runs-1. Run receives the pool's context and should abandon
// work promptly once it is done (worlds do so when run through
// sim.World.RunContext).
type Point[T any] struct {
	Base int64
	Runs int
	Run  func(ctx context.Context, seed int64) (T, error)
}

// Seeds lists the seeds of a sweep of runs runs from base:
// base..base+runs-1.
func Seeds(base int64, runs int) []int64 {
	seeds := make([]int64, runs)
	for i := range seeds {
		seeds[i] = base + int64(i)
	}
	return seeds
}

// Sweep runs every point's seeds across one pool of workers goroutines
// (0 or negative means GOMAXPROCS) and returns out[p][r], the result of
// point p at seed Base+r. The result is identical whatever the worker
// count, so parallel sweeps are reproducible. Runs are claimed point by
// point, seed by seed.
//
// After each successful run, notify (when non-nil) receives the number
// of runs completed so far. It is invoked from worker goroutines —
// possibly concurrently — and must not block, or it stalls the pool.
//
// On the first run error the pool stops claiming new runs and cancels
// the context passed to in-flight ones (worlds run through
// sim.World.RunContext stop at the next event batch); the first genuine
// error in claim order is returned. A done outer context surfaces as its
// ctx.Err.
func Sweep[T any](outer context.Context, workers int, points []Point[T], notify func(done int)) ([][]T, error) {
	if outer == nil {
		outer = context.Background()
	}
	// Child context so a failing run can abort its in-flight siblings
	// without touching the caller's ctx.
	ctx, abort := context.WithCancel(outer)
	defer abort()

	type slot struct{ p, r int }
	var slots []slot
	out := make([][]T, len(points))
	for p, pt := range points {
		out[p] = make([]T, pt.Runs)
		for r := 0; r < pt.Runs; r++ {
			slots = append(slots, slot{p, r})
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(slots) {
		workers = len(slots)
	}
	errs := make([]error, len(slots))

	var (
		next, done int // next unclaimed slot; successful runs so far
		mu         sync.Mutex
		wg         sync.WaitGroup
	)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(slots) {
			return -1
		}
		i := next
		next++
		return i
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := claim()
				if i < 0 {
					return
				}
				s := slots[i]
				pt := points[s.p]
				out[s.p][s.r], errs[i] = pt.Run(ctx, pt.Base+int64(s.r))
				if errs[i] != nil {
					abort()
				} else if notify != nil {
					mu.Lock()
					done++
					n := done
					mu.Unlock()
					notify(n)
				}
			}
		}()
	}
	wg.Wait()
	complete := next >= len(slots)
	for _, err := range errs {
		if err != nil {
			complete = false
		}
	}
	if complete {
		// Every run was claimed and succeeded: the result set is whole,
		// even if ctx happened to expire after the last run finished.
		return out, nil
	}
	if err := outer.Err(); err != nil {
		return nil, err
	}
	// A run failed: prefer the first genuine error in claim order over
	// the cancellations our own abort induced in its in-flight siblings.
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		if !errors.Is(err, context.Canceled) {
			return nil, err
		}
	}
	return nil, firstErr
}
