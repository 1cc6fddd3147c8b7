// Package stats provides the small statistical toolkit the paper's
// methodology requires: sample means, standard deviations, and Student-t
// confidence intervals ("all points ... are obtained as an average of 10
// different runs ... confidence intervals ... at 90% confidence level"),
// plus streaming accumulators used by the metrics collectors.
package stats

import (
	"fmt"
	"math"
)

// Sample summarises a batch of observations.
type Sample struct {
	N      int
	Mean   float64
	StdDev float64 // sample standard deviation (n−1 denominator)
	Min    float64
	Max    float64
}

// Summarize computes a Sample over xs. An empty input returns the zero
// Sample.
func Summarize(xs []float64) Sample {
	if len(xs) == 0 {
		return Sample{}
	}
	s := Sample{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, x := range xs {
		sum += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// MeanCI holds a sample mean together with its confidence half-width, in
// the paper's "value ± halfwidth" presentation.
type MeanCI struct {
	Mean      float64
	HalfWidth float64
	N         int
}

// String renders the interval in the paper's table style.
func (m MeanCI) String() string {
	return fmt.Sprintf("%.2f±%.2f", m.Mean, m.HalfWidth)
}

// Lo returns the lower bound of the interval.
func (m MeanCI) Lo() float64 { return m.Mean - m.HalfWidth }

// Hi returns the upper bound of the interval.
func (m MeanCI) Hi() float64 { return m.Mean + m.HalfWidth }

// Contains reports whether x lies within the interval (inclusive).
func (m MeanCI) Contains(x float64) bool { return x >= m.Lo() && x <= m.Hi() }

// ConfidenceInterval returns the mean of xs with a two-sided Student-t
// confidence interval at the given level (e.g. 0.90). Fewer than two
// observations yield a zero half-width.
func ConfidenceInterval(xs []float64, level float64) MeanCI {
	s := Summarize(xs)
	ci := MeanCI{Mean: s.Mean, N: s.N}
	if s.N < 2 || s.StdDev == 0 {
		return ci
	}
	t := tCritical(s.N-1, level)
	ci.HalfWidth = t * s.StdDev / math.Sqrt(float64(s.N))
	return ci
}

// tCritical returns the two-sided Student-t critical value for the given
// degrees of freedom and confidence level, computed by bisection on the
// regularized incomplete beta function (no lookup tables, stdlib only).
func tCritical(df int, level float64) float64 {
	if df <= 0 {
		return 0
	}
	if level <= 0 {
		return 0
	}
	if level >= 1 {
		return math.Inf(1)
	}
	target := 1 - (1-level)/2 // upper-tail quantile, e.g. 0.95 for 90% CI
	lo, hi := 0.0, 1e3
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if tCDF(mid, float64(df)) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// tCDF is the CDF of Student's t distribution with df degrees of freedom,
// expressed through the regularized incomplete beta function.
func tCDF(t, df float64) float64 {
	if t == 0 {
		return 0.5
	}
	x := df / (df + t*t)
	p := 0.5 * regIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes betacf).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(math.Log(x)*a+math.Log(1-x)*b+lbeta) / a
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x)
	}
	// Symmetry relation for faster convergence.
	lbetaSwap := math.Exp(math.Log(1-x)*b+math.Log(x)*a+lbeta) / b
	return 1 - lbetaSwap*betacf(b, a, 1-x)
}

func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
