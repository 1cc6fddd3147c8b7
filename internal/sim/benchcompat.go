package sim

import "math"

// The accessors in this file exist only because the repository benchmark
// (bench/) reads them and its sources are frozen between benchmark
// revisions. Every world runs on one goroutine, so each returns the
// serial answer: no worker pool and no plane that ever forks. Nothing
// else in the module may call them; they go away together with the
// benchmark's shard.* metrics.

// ShardPool is the benchmark's view of a within-run worker pool. No
// world has one, so the only value ever handed out is a nil *ShardPool.
type ShardPool struct{}

// Workers returns 1: a run uses one goroutine.
func (*ShardPool) Workers() int { return 1 }

// ShardPool returns nil: a world has no within-run worker pool.
func (n *Node) ShardPool() *ShardPool { return nil }

// ForkThresholds is the benchmark's view of per-plane fork thresholds:
// the batch size at which a plane would hand work to a worker pool.
type ForkThresholds struct {
	RxMin, BeaconMin, MobilityMin, DiffMin int
}

// ForkThresholds returns math.MaxInt for every plane: no plane forks.
func (w *World) ForkThresholds() ForkThresholds {
	return ForkThresholds{RxMin: math.MaxInt, BeaconMin: math.MaxInt, MobilityMin: math.MaxInt, DiffMin: math.MaxInt}
}
