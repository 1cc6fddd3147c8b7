package geom

import (
	"math/rand"
	"testing"
)

// BenchmarkCalibration is a fixed, deterministic, CPU-bound workload with
// an instruction mix close to the geometric hot paths (predicate
// arithmetic over float64s). It is NOT gated by the CI bench-regression
// job; cmd/benchgate uses it as a machine-speed probe to normalize ns/op
// before comparing against the committed baseline, so the gate measures
// code regressions rather than runner-hardware differences.
func BenchmarkCalibration(b *testing.B) {
	pts := randomBenchPoints(64, 1)
	sink := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j+3 < len(pts); j++ {
			sink += Orient(pts[j], pts[j+1], pts[j+2])
			sink += InCircle(pts[j], pts[j+1], pts[j+2], pts[j+3])
		}
	}
	if sink == 0 {
		b.Fatal("degenerate calibration input")
	}
}

// randomBenchPoints returns n points uniform in a 1500×300 m strip, the
// paper's deployment region.
func randomBenchPoints(n int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Pt(rng.Float64()*1500, rng.Float64()*300)
	}
	return pts
}
