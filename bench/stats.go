package main

import (
	"math"
	"sort"
)

// summary is the distribution of one metric over the runs of a workload.
type summary struct {
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// summarize sorts a copy of v and digests it; no samples give the zero
// summary.
func summarize(v []float64) summary {
	if len(v) == 0 {
		return summary{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q1, q2, q3 := quartiles(s)
	return summary{Median: q2, Q1: q1, Q3: q3, N: len(s), Samples: s}
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// quartiles returns the three cut points of sorted data by the
// "exclusive" method of Python's statistics.quantiles(data, n=4), so the
// spreads this program prints are the ones that function computes.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	n := len(sorted)
	if n == 1 {
		return sorted[0], sorted[0], sorted[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Verdicts of a comparison between a base and a new set of runs.
const (
	better     = "better"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// verdict compares two summaries of a metric against its bound, the
// share of the base median by which the metric may worsen. A change
// beyond the bound is worse (or better, in the other direction). When
// either side's spread exceeds the bound the medians alone cannot
// decide, so the result is unresolved unless every run of one side
// beats every run of the other.
func verdict(base, next summary, lowerIsBetter bool, bound float64) string {
	if base.N == 0 || next.N == 0 {
		return unresolved
	}
	// rel > 0 means the new median is worse than the base median.
	rel := (next.Median - base.Median) / math.Abs(base.Median)
	if !lowerIsBetter {
		rel = -rel
	}
	if math.Max(base.spread(), next.spread()) > bound &&
		!beats(next, base, lowerIsBetter) && !beats(base, next, lowerIsBetter) {
		return unresolved
	}
	switch {
	case rel > bound:
		return worse
	case rel < -bound:
		return better
	}
	return unchanged
}

// beats reports whether every run of a is better than every run of b.
// Summary samples are sorted ascending.
func beats(a, b summary, lowerIsBetter bool) bool {
	if lowerIsBetter {
		return a.Samples[a.N-1] < b.Samples[0]
	}
	return a.Samples[0] > b.Samples[b.N-1]
}
