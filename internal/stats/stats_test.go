package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want Sample
	}{
		{"empty", nil, Sample{}},
		{"single", []float64{3}, Sample{N: 1, Mean: 3, Min: 3, Max: 3}},
		{"pair", []float64{1, 3}, Sample{N: 2, Mean: 2, StdDev: math.Sqrt(2), Min: 1, Max: 3}},
		{"constant", []float64{5, 5, 5}, Sample{N: 3, Mean: 5, Min: 5, Max: 5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Summarize(tt.xs)
			if got.N != tt.want.N || math.Abs(got.Mean-tt.want.Mean) > 1e-12 ||
				math.Abs(got.StdDev-tt.want.StdDev) > 1e-12 ||
				got.Min != tt.want.Min || got.Max != tt.want.Max {
				t.Errorf("Summarize = %+v, want %+v", got, tt.want)
			}
		})
	}
}

// Known Student-t critical values (two-sided) to 3 decimals.
func TestTCritical(t *testing.T) {
	tests := []struct {
		df    int
		level float64
		want  float64
	}{
		{9, 0.90, 1.833}, // the paper's setting: 10 runs, 90%
		{9, 0.95, 2.262},
		{1, 0.90, 6.314},
		{4, 0.99, 4.604},
		{29, 0.95, 2.045},
		{100, 0.90, 1.660},
	}
	for _, tt := range tests {
		got := tCritical(tt.df, tt.level)
		if math.Abs(got-tt.want) > 2e-3 {
			t.Errorf("tCritical(df=%d, level=%v) = %.4f, want %.3f", tt.df, tt.level, got, tt.want)
		}
	}
}

func TestTCriticalEdgeCases(t *testing.T) {
	if got := tCritical(0, 0.9); got != 0 {
		t.Errorf("df=0 should give 0, got %v", got)
	}
	if got := tCritical(5, 0); got != 0 {
		t.Errorf("level=0 should give 0, got %v", got)
	}
	if got := tCritical(5, 1); !math.IsInf(got, 1) {
		t.Errorf("level=1 should give +Inf, got %v", got)
	}
}

func TestTCDFSymmetry(t *testing.T) {
	for _, df := range []float64{1, 3, 9, 30} {
		for _, x := range []float64{0.5, 1, 2, 5} {
			if got := tCDF(x, df) + tCDF(-x, df); math.Abs(got-1) > 1e-10 {
				t.Errorf("tCDF(%v)+tCDF(-%v) = %v, want 1 (df=%v)", x, x, got, df)
			}
		}
	}
	if got := tCDF(0, 7); got != 0.5 {
		t.Errorf("tCDF(0) = %v, want 0.5", got)
	}
}

func TestConfidenceInterval(t *testing.T) {
	// Hand-checked example: xs with mean 10, sd 2, n = 4, 95% CI
	// halfwidth = 3.182 * 2 / 2 = 3.182.
	xs := []float64{8, 12, 8, 12}
	ci := ConfidenceInterval(xs, 0.95)
	if math.Abs(ci.Mean-10) > 1e-12 {
		t.Errorf("mean = %v, want 10", ci.Mean)
	}
	sd := Summarize(xs).StdDev
	want := 3.1824 * sd / 2
	if math.Abs(ci.HalfWidth-want) > 1e-2 {
		t.Errorf("halfwidth = %v, want %v", ci.HalfWidth, want)
	}
	if !ci.Contains(10) || ci.Contains(100) {
		t.Error("Contains misbehaves")
	}
	if math.Abs(ci.Lo()-(ci.Mean-ci.HalfWidth)) > 1e-12 ||
		math.Abs(ci.Hi()-(ci.Mean+ci.HalfWidth)) > 1e-12 {
		t.Error("Lo/Hi inconsistent")
	}
}

func TestConfidenceIntervalDegenerate(t *testing.T) {
	if ci := ConfidenceInterval(nil, 0.9); ci.HalfWidth != 0 || ci.Mean != 0 {
		t.Errorf("empty CI = %+v", ci)
	}
	if ci := ConfidenceInterval([]float64{7}, 0.9); ci.HalfWidth != 0 || ci.Mean != 7 {
		t.Errorf("single CI = %+v", ci)
	}
	if ci := ConfidenceInterval([]float64{4, 4, 4}, 0.9); ci.HalfWidth != 0 {
		t.Errorf("constant CI halfwidth = %v, want 0", ci.HalfWidth)
	}
}

// Property: the 90% CI over normal samples contains the true mean roughly
// 90% of the time (allow generous slack for 400 trials).
func TestCICoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const trials = 400
	const trueMean = 5.0
	hits := 0
	for i := 0; i < trials; i++ {
		xs := make([]float64, 10)
		for j := range xs {
			xs[j] = trueMean + rng.NormFloat64()*3
		}
		if ConfidenceInterval(xs, 0.90).Contains(trueMean) {
			hits++
		}
	}
	rate := float64(hits) / trials
	if rate < 0.84 || rate > 0.96 {
		t.Errorf("90%% CI coverage = %.3f, want ≈0.90", rate)
	}
}

// Property: CI halfwidth shrinks as sample size grows (for the same
// underlying distribution).
func TestCIShrinksWithN(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	width := func(n int) float64 {
		total := 0.0
		for rep := 0; rep < 20; rep++ {
			xs := make([]float64, n)
			for j := range xs {
				xs[j] = rng.NormFloat64()
			}
			total += ConfidenceInterval(xs, 0.9).HalfWidth
		}
		return total / 20
	}
	if w10, w100 := width(10), width(100); w100 >= w10 {
		t.Errorf("halfwidth should shrink with n: w10=%v w100=%v", w10, w100)
	}
}

func TestAccumulatorMatchesSummarize(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		var acc Accumulator
		for i, r := range raw {
			xs[i] = float64(r) / 7
			acc.Add(xs[i])
		}
		want := Summarize(xs)
		return math.Abs(acc.Mean()-want.Mean) < 1e-9*(1+math.Abs(want.Mean))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var acc Accumulator
	if acc.Mean() != 0 {
		t.Error("zero-value accumulator should report a zero mean")
	}
}

func TestMeanCIString(t *testing.T) {
	ci := MeanCI{Mean: 120.2, HalfWidth: 8.5, N: 10}
	if got := ci.String(); got != "120.20±8.50" {
		t.Errorf("String = %q", got)
	}
}
