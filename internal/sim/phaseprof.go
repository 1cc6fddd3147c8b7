package sim

import "time"

// PhaseProf accumulates the wall clock spent in each stepping plane of
// a run — the attribution the scale sweep prints so each plane's cost is
// visible rather than only the end-to-end wall clock. Profiling is
// off by default (a run pays one nil check per phase dispatch);
// EnablePhaseProfile switches it on for a world before Run.
//
// The durations are wall-clock observations and vary run to run; they
// never feed back into the simulation, so profiled and unprofiled runs
// produce byte-identical reports.
type PhaseProf struct {
	// Beacon is the time constructing and queueing hello frames.
	Beacon time.Duration
	// Mobility is the time in the periodic bulk Reindex: position
	// extrapolation plus spatial-index refresh for every radio.
	Mobility time.Duration
	// Rx is the time resolving end-of-airing reception batches — range,
	// fault, and interference analysis plus delivery callbacks (which
	// include protocol work done on reception).
	Rx time.Duration
	// AntiEntropy is the time epidemic instances spend computing
	// summary-vector diffs (zero under protocols without anti-entropy).
	AntiEntropy time.Duration
}

// clock starts timing one phase dispatch; the returned stop function
// (typically deferred) folds the elapsed wall clock into *d.
func (p *PhaseProf) clock(d *time.Duration) func() {
	start := time.Now()
	return func() { *d += time.Since(start) }
}

// EnablePhaseProfile turns on per-phase wall-clock attribution for this
// world's run. Call before Run; idempotent.
func (w *World) EnablePhaseProfile() {
	if w.prof != nil {
		return
	}
	w.prof = &PhaseProf{}
	w.medium.SetRxClock(func(d time.Duration) { w.prof.Rx += d })
}

// PhaseProfile returns the accumulated per-phase durations (zero when
// EnablePhaseProfile was never called).
func (w *World) PhaseProfile() PhaseProf {
	if w.prof == nil {
		return PhaseProf{}
	}
	return *w.prof
}
