package glr

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func testScenario(t *testing.T, opts ...Option) *Scenario {
	t.Helper()
	base := []Option{
		WithNodes(30),
		WithRange(200),
		WithWorkload(UniformWorkload{Messages: 12, Rate: 1}),
		WithSimTime(140),
		WithSeed(7),
	}
	sc, err := NewScenario(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestRunnerParallelMatchesSequential is the redesign's determinism
// guarantee: a Runner with a full worker pool must return exactly what
// a sequential Runner does, seed for seed. Run under -race in CI.
func TestRunnerParallelMatchesSequential(t *testing.T) {
	sc := testScenario(t)
	ctx := context.Background()
	seq, err := Runner{Workers: 1}.Replicate(ctx, sc, 4)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Runner{Workers: 4}.Replicate(ctx, sc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel summary diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestRunnerCompareMatchesSequential covers the comparison path, where
// one pool interleaves both protocols' replications.
func TestRunnerCompareMatchesSequential(t *testing.T) {
	sc := testScenario(t)
	ctx := context.Background()
	seq, err := Runner{Workers: 1}.Compare(ctx, sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Runner{Workers: 6}.Compare(ctx, sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel comparison diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
	if seq.GLR.Protocol != GLR || seq.Epidemic.Protocol != Epidemic {
		t.Errorf("comparison protocols mislabeled: %v / %v", seq.GLR.Protocol, seq.Epidemic.Protocol)
	}
	if seq.GLR.Results[0].Generated != seq.Epidemic.Results[0].Generated {
		t.Error("protocols must see identical workloads seed-for-seed")
	}
}

// TestRunnerSeedDerivation pins the documented derivation: replication
// r runs with base+r, reproducible by a single Scenario.Run.
func TestRunnerSeedDerivation(t *testing.T) {
	sc := testScenario(t) // base seed 7
	sum, err := Runner{Workers: 2}.Replicate(context.Background(), sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantSeeds := []int64{7, 8, 9}
	if !reflect.DeepEqual(sum.Seeds, wantSeeds) {
		t.Fatalf("seeds %v, want %v", sum.Seeds, wantSeeds)
	}
	for i, seed := range sum.Seeds {
		single := testScenario(t, WithSeed(seed))
		res, err := single.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res != sum.Results[i] {
			t.Errorf("replication %d (seed %d) not reproducible standalone:\nrunner: %+v\nsingle: %+v",
				i, seed, sum.Results[i], res)
		}
	}
	if sum.DeliveryRatio.N != 3 {
		t.Errorf("aggregate over %d runs, want 3", sum.DeliveryRatio.N)
	}
}

// TestRunnerCancellation verifies ctx cancellation surfaces instead of
// results.
func TestRunnerCancellation(t *testing.T) {
	sc := testScenario(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (Runner{Workers: 2}).Replicate(ctx, sc, 4); err == nil {
		t.Error("canceled replication sweep returned no error")
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	big := testScenario(t, WithNodes(200), WithRegion(3000, 600), WithSimTime(600))
	if _, err := (Runner{Workers: 1}).Replicate(ctx2, big, 2); err == nil {
		t.Error("timed-out replication sweep returned no error")
	}
}

// TestRunnerRejectsBadRuns covers the argument validation.
func TestRunnerRejectsBadRuns(t *testing.T) {
	sc := testScenario(t)
	if _, err := (Runner{}).Replicate(context.Background(), sc, 0); err == nil {
		t.Error("0 replications accepted")
	}
	if _, err := (Runner{}).Compare(context.Background(), sc, -1); err == nil {
		t.Error("negative replications accepted")
	}
}

// TestRunnerParallelSpeedup is the acceptance demonstration: on a
// multi-core machine, a GOMAXPROCS-wide Runner must finish a 4-seed
// 500-node comparison sweep at least twice as fast as a sequential one,
// with identical results. Skipped in -short and on machines without
// enough cores to make the bound physical.
func TestRunnerParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep; skipped in -short")
	}
	procs := runtime.GOMAXPROCS(0)
	if procs < 4 {
		t.Skipf("need ≥4 CPUs for a ≥2x bound, have %d", procs)
	}
	sc, err := NewScenario(
		WithNodes(500),
		WithRange(100),
		WithRegion(4743, 949), // the paper's density and 5:1 aspect at 500 nodes
		WithWorkload(UniformWorkload{Messages: 100, Rate: 2}),
		WithSimTime(240),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const seeds = 4

	start := time.Now()
	seq, err := Runner{Workers: 1}.Compare(ctx, sc, seeds)
	if err != nil {
		t.Fatal(err)
	}
	seqWall := time.Since(start)

	start = time.Now()
	par, err := Runner{Workers: procs}.Compare(ctx, sc, seeds)
	if err != nil {
		t.Fatal(err)
	}
	parWall := time.Since(start)

	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel sweep results diverged from sequential")
	}
	speedup := float64(seqWall) / float64(parWall)
	t.Logf("sequential %v, parallel %v on %d procs: %.2fx", seqWall, parWall, procs, speedup)
	if speedup < 2 {
		t.Errorf("parallel speedup %.2fx, want ≥2x (seq %v, par %v, %d procs)",
			speedup, seqWall, parWall, procs)
	}
}
