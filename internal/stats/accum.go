package stats

// Accumulator is a streaming mean (Welford's update): the mean moves by
// each observation's deviation over the count, so it never sums the
// observations. The zero value is ready to use.
type Accumulator struct {
	n    int
	mean float64
}

// Add folds one observation into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	a.mean += (x - a.mean) / float64(a.n)
}

// Mean returns the running mean, or 0 with no observations.
func (a *Accumulator) Mean() float64 { return a.mean }
