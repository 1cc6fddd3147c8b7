package rng

import (
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
)

// nodeSeed derives node i's stream seed from a run seed the way
// sim.NewWorld does.
func nodeSeed(seed int64, i int) int64 { return seed + int64(i)*104729 + 7 }

const qualityNodes = 10000

// TestSplitMix64KnownAnswers pins the mixer to the reference
// SplittableRandom sequence started at 0: a changed constant would move
// every stream seed and every stateless fault predicate.
func TestSplitMix64KnownAnswers(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	for i, w := range want {
		if got := SplitMix64(uint64(i) * golden); got != w {
			t.Errorf("SplitMix64(%d·golden) = %#x, want %#x", i, got, w)
		}
	}
}

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d: %#x != %#x for the same seed", i, x, y)
		}
	}
	if New(42).Uint64() == New(43).Uint64() {
		t.Error("adjacent seeds gave the same first draw")
	}
}

// TestFirstDrawUniform checks the first Float64 of 10,000 node streams
// against a uniform distribution over 20 bins. The bound is the
// chi-square critical value for 19 degrees of freedom at p = 0.001.
func TestFirstDrawUniform(t *testing.T) {
	const bins = 20
	const bound = 43.82
	var counts [bins]int
	for i := 0; i < qualityNodes; i++ {
		counts[int(New(nodeSeed(1, i)).Float64()*bins)]++
	}
	expected := float64(qualityNodes) / bins
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > bound {
		t.Errorf("chi-square of first draws = %.2f over %d bins, bound %.2f; counts %v", chi2, bins, bound, counts)
	}
}

// TestAdjacentNodesUncorrelated pairs the k-th draw of node i with the
// k-th draw of node i+1, for the first 1,000 draws of 10,000 nodes, and
// requires the Pearson correlation over all pairs to stay below 0.05.
// Streams that ignored their seed, or shared most of it, would give r
// near 1.
func TestAdjacentNodesUncorrelated(t *testing.T) {
	const draws = 1000
	prev := make([]float64, draws)
	cur := make([]float64, draws)
	fill := func(dst []float64, s *rand.Rand) {
		for k := range dst {
			dst[k] = s.Float64()
		}
	}
	fill(prev, New(nodeSeed(1, 0)))
	var n, sx, sy, sxx, syy, sxy float64
	for i := 1; i < qualityNodes; i++ {
		fill(cur, New(nodeSeed(1, i)))
		for k := range cur {
			x, y := prev[k], cur[k]
			n++
			sx += x
			sy += y
			sxx += x * x
			syy += y * y
			sxy += x * y
		}
		prev, cur = cur, prev
	}
	r := (n*sxy - sx*sy) / math.Sqrt((n*sxx-sx*sx)*(n*syy-sy*sy))
	if math.Abs(r) >= 0.05 {
		t.Errorf("adjacent-node correlation r = %.4f, want |r| < 0.05", r)
	}
}

var sink *rand.Rand

// TestNewIsSmall bounds what one stream costs to build: the generator
// and its 16-byte PCG state, with no per-stream table.
func TestNewIsSmall(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { sink = New(7) }); allocs > 2 {
		t.Errorf("New makes %.0f allocations, want at most 2", allocs)
	}
	const builds = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		sink = New(int64(i))
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / builds; per > 64 {
		t.Errorf("New allocates %d B per stream, want at most 64", per)
	}
}
