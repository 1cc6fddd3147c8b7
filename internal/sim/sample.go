package sim

import (
	"context"

	"glr/internal/des"
	"glr/internal/metrics"
)

// SamplePoint is one periodic observation of a running world: the
// metrics collector's counters so far plus the instantaneous buffer
// occupancy across nodes. Samplers receive it by value; it aliases
// nothing.
type SamplePoint struct {
	Time float64

	// Workload counters so far (metrics.Snapshot).
	Generated  int
	Delivered  int
	Duplicates int
	// LatencySum is the summed first-copy delivery latency of the
	// Delivered messages, so AvgLatency-so-far is LatencySum/Delivered.
	LatencySum float64

	// Frame counters so far (control overhead).
	ControlFrames uint64
	DataFrames    uint64
	Acks          uint64

	// Instantaneous buffer occupancy: total messages held across all
	// nodes and the fullest single node.
	BufferTotal int
	BufferMax   int

	// Fault intensity so far: nodes currently crashed by churn, and
	// receptions lost to blackouts or crashed receivers since the start
	// of the run. Both zero in fault-free runs.
	NodesDown  int
	FaultDrops uint64
}

// AddSampler arms a periodic read-only probe: every `every` simulated
// seconds, first at `phase`, fn receives a SamplePoint. Samplers must
// not mutate the world; they exist so callers can observe a run in
// flight (time series of delivery, latency, occupancy, overhead)
// without touching its outcome — a sampled run dispatches the same
// protocol events as an unsampled one. Call before Run.
func (w *World) AddSampler(every, phase float64, fn func(SamplePoint)) {
	des.NewTicker(w.sched, every, phase, func() {
		fn(w.sample())
	})
}

// sample assembles the current SamplePoint.
func (w *World) sample() SamplePoint {
	snap := w.collector.Snapshot()
	sp := SamplePoint{
		Time:          w.sched.Now(),
		Generated:     snap.Generated,
		Delivered:     snap.Delivered,
		Duplicates:    snap.Duplicates,
		LatencySum:    snap.LatencySum,
		ControlFrames: snap.ControlFrames,
		DataFrames:    snap.DataFrames,
		Acks:          snap.Acks,
	}
	for _, n := range w.nodes {
		used := n.proto.StorageUsed()
		sp.BufferTotal += used
		if used > sp.BufferMax {
			sp.BufferMax = used
		}
	}
	sp.NodesDown = w.downCount
	sp.FaultDrops = w.medium.Stats().FaultDrops
	return sp
}

// runChunk is the simulated-time slice between cancellation checks in
// RunContext: fine enough that cancellation lands within a second of
// wall clock on large worlds, coarse enough to cost nothing.
const runChunk = 30.0

// RunContext executes the scenario to its horizon like Run, but checks
// ctx between simulated-time chunks and abandons the run (returning
// ctx.Err) once the context is done. A run under an un-cancellable
// context dispatches exactly the same event sequence as Run.
func (w *World) RunContext(ctx context.Context) (metrics.Report, error) {
	if ctx != nil && ctx.Done() != nil {
		for t := runChunk; t < w.cfg.SimTime; t += runChunk {
			if err := ctx.Err(); err != nil {
				return metrics.Report{}, err
			}
			w.sched.Run(t)
		}
		if err := ctx.Err(); err != nil {
			return metrics.Report{}, err
		}
	}
	return w.Run(), nil
}
