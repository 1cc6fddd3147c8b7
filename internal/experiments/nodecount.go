package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"glr/internal/asciiplot"
	"glr/internal/core"
	"glr/internal/ldt"
	"glr/internal/metrics"
	"glr/internal/mobility"
	"glr/internal/shard"
	"glr/internal/sim"
	"glr/internal/stats"
)

// NodeCountSizes is the default sweep: the paper's evaluation runs at
// tens of nodes; the sweep scales an order of magnitude beyond it.
var NodeCountSizes = []int{100, 250, 500, 1000}

// paperDensity is the paper's node density: 50 nodes in 1500 × 300 m.
const paperDensity = 50.0 / (1500 * 300)

// NodeCountPoint is one sweep point: the same scenario run twice — on
// the serial engine and on the sharded engine (an automatic
// GOMAXPROCS-wide worker pool) — with wall-clock, spanner-construction
// time, and heap-allocation pressure measured.
type NodeCountPoint struct {
	N              int
	Region         mobility.Region
	Delivery       stats.MeanCI
	WallSerial     time.Duration    // mean per serial run
	WallSharded    time.Duration    // mean per sharded run
	ShardWorkers   int              // pool width of the sharded runs (GOMAXPROCS)
	SpannerSerial  time.Duration    // mean spanner-construction time per serial run
	SpannerSharded time.Duration    // mean spanner time within the sharded runs
	Phases         sim.PhaseProf    // sharded runs: mean per-phase wall clock
	Thresholds     shard.Thresholds // fork thresholds the sharded runs calibrated
	TriHitRate     float64          // serial runs: witness-triangulation reuse
	Allocs         uint64           // mean heap allocations per serial run
	GC             uint32           // mean GC cycles per serial run
	Identical      bool             // serial and sharded reports matched exactly at every seed
}

// ShardSpeedup returns serial wall-clock over sharded-engine wall-clock
// (1.0 on a single-CPU host, where the automatic pool resolves serial).
func (p NodeCountPoint) ShardSpeedup() float64 {
	if p.WallSharded <= 0 {
		return 0
	}
	return float64(p.WallSerial) / float64(p.WallSharded)
}

// NodeCountResult is the node-count scaling sweep artifact.
type NodeCountResult struct {
	Points []NodeCountPoint
	Runs   int
	msgs   []int // messages per point, aligned with Points
}

// nodeCountScenario builds the sweep scenario for n nodes: the paper's
// density and mobility at 100 m range, region grown with n (5:1 aspect
// like the paper's 1500 × 300), uniform random traffic proportional to
// n, and a horizon long enough for delivery.
func nodeCountScenario(n, msgs int, seed int64) sim.Scenario {
	h := math.Sqrt(float64(n) / paperDensity / 5)
	s := sim.DefaultScenario(100)
	s.Name = fmt.Sprintf("scale-%d", n)
	s.N = n
	s.Seed = seed
	s.Region = mobility.Region{W: 5 * h, H: h}
	s.Traffic = sim.UniformTraffic(n, msgs, 2.0, seed*977+5)
	s.SimTime = float64(msgs)/2.0 + 240
	return s
}

// instrRun is one instrumented run's measurements: the report, the
// shared-cache stats, the heap Mallocs / GC-cycle deltas across the run
// (runtime.ReadMemStats), and — when profiled — the per-phase wall
// clock and the fork thresholds the world ran with.
type instrRun struct {
	rep     metrics.Report
	spanner ldt.SpannerStats
	mallocs uint64
	gc      uint32
	phases  sim.PhaseProf
	thr     shard.Thresholds
}

// executeInstrumented runs one GLR scenario (paper defaults) with spanner
// and allocation instrumentation; profile additionally turns on
// per-phase wall-clock attribution (which never changes the report — see
// sim.PhaseProf).
func executeInstrumented(ctx context.Context, s sim.Scenario, profile bool) (instrRun, error) {
	factory, maint, err := core.NewInstrumented(core.DefaultConfig())
	if err != nil {
		return instrRun{}, err
	}
	w, err := sim.NewWorld(s, factory)
	if err != nil {
		return instrRun{}, err
	}
	if profile {
		w.EnablePhaseProfile()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := w.RunContext(ctx)
	runtime.ReadMemStats(&after)
	if err != nil {
		return instrRun{}, err
	}
	return instrRun{
		rep:     rep,
		spanner: maint.Stats(),
		mallocs: after.Mallocs - before.Mallocs,
		gc:      after.NumGC - before.NumGC,
		phases:  w.PhaseProfile(),
		thr:     w.ForkThresholds(),
	}, nil
}

// NodeCountSweep measures how the simulator scales with node count at
// fixed density. Each seed runs the same scenario on the serial engine
// and on the sharded engine (automatic GOMAXPROCS-wide worker pool). It
// reports delivery, wall-clock, spanner-construction time, heap-
// allocation pressure, and serial-vs-sharded wall clock — and asserts
// the two reports are identical. sizes nil means NodeCountSizes.
// Replications are run sequentially (never in parallel) so the
// wall-clock comparison is not distorted by CPU contention; o.Runs is
// capped at 3 — even when overridden via `glrexp -runs` — because the
// point is the timing trend, not tight confidence intervals.
func NodeCountSweep(o Options, sizes []int) (*NodeCountResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if sizes == nil {
		sizes = NodeCountSizes
	}
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	runs := min(o.Runs, 3)
	res := &NodeCountResult{Runs: runs}

	for _, n := range sizes {
		if n < 2 {
			return nil, fmt.Errorf("experiments: node count %d must be ≥ 2", n)
		}
		msgs := o.messages(n)
		point := NodeCountPoint{N: n, Identical: true}
		delivery := make([]float64, runs)
		var hitStats ldt.SpannerStats
		var allocs uint64
		var gc uint32
		point.ShardWorkers = runtime.GOMAXPROCS(0)
		for r := 0; r < runs; r++ {
			seed := o.BaseSeed + int64(r)
			var reports [2]metrics.Report
			for i, sharded := range []bool{false, true} {
				s := nodeCountScenario(n, msgs, seed)
				point.Region = s.Region
				s.DisableSharding = !sharded
				start := time.Now()
				ir, err := executeInstrumented(ctx, s, sharded)
				elapsed := time.Since(start)
				if err != nil {
					return nil, err
				}
				reports[i] = ir.rep
				if sharded {
					point.WallSharded += elapsed
					point.SpannerSharded += ir.spanner.BuildTime
					point.Phases.Beacon += ir.phases.Beacon
					point.Phases.Mobility += ir.phases.Mobility
					point.Phases.Rx += ir.phases.Rx
					point.Phases.AntiEntropy += ir.phases.AntiEntropy
					point.Thresholds = ir.thr
				} else {
					delivery[r] = ir.rep.DeliveryRatio
					point.WallSerial += elapsed
					point.SpannerSerial += ir.spanner.BuildTime
					hitStats.Add(ir.spanner)
					allocs += ir.mallocs
					gc += ir.gc
				}
			}
			if reports[0] != reports[1] {
				point.Identical = false
			}
		}
		point.Delivery = stats.ConfidenceInterval(delivery, o.Confidence)
		point.WallSerial /= time.Duration(runs)
		point.WallSharded /= time.Duration(runs)
		point.SpannerSerial /= time.Duration(runs)
		point.SpannerSharded /= time.Duration(runs)
		point.Phases.Beacon /= time.Duration(runs)
		point.Phases.Mobility /= time.Duration(runs)
		point.Phases.Rx /= time.Duration(runs)
		point.Phases.AntiEntropy /= time.Duration(runs)
		point.TriHitRate = hitStats.TriHitRate()
		point.Allocs = allocs / uint64(runs)
		point.GC = gc / uint32(runs)
		res.Points = append(res.Points, point)
		res.msgs = append(res.msgs, msgs)
		o.progress("scale: n=%d -> delivery %.2f, spanner %v (hit %.0f%%), wall %v, sharded %v (%.1fx on %d workers), allocs %dM",
			n, point.Delivery.Mean,
			point.SpannerSerial.Round(time.Millisecond), 100*point.TriHitRate,
			point.WallSerial.Round(time.Millisecond),
			point.WallSharded.Round(time.Millisecond), point.ShardSpeedup(), point.ShardWorkers,
			point.Allocs/1e6)
	}
	return res, nil
}

// Render prints the sweep table.
func (r *NodeCountResult) Render() string {
	rows := make([][]string, len(r.Points))
	allIdentical := true
	for i, p := range r.Points {
		if !p.Identical {
			allIdentical = false
		}
		rows[i] = []string{
			fmt.Sprintf("%d", p.N),
			fmt.Sprintf("%.0fx%.0f m", p.Region.W, p.Region.H),
			fmt.Sprintf("%d", r.msgs[i]),
			fmt.Sprintf("%.2f±%.2f", p.Delivery.Mean, p.Delivery.HalfWidth),
			p.SpannerSerial.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f%%", 100*p.TriHitRate),
			p.WallSerial.Round(time.Millisecond).String(),
			p.WallSharded.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1fx", p.ShardSpeedup()),
			fmt.Sprintf("%.0fM", float64(p.Allocs)/1e6),
			fmt.Sprintf("%d", p.GC),
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if len(r.Points) > 0 {
		workers = r.Points[len(r.Points)-1].ShardWorkers
	}
	var sb strings.Builder
	sb.WriteString(asciiplot.Table{
		Title:   fmt.Sprintf("Node-count scaling sweep (fixed density, GLR, %d run(s)/point)", r.Runs),
		Headers: []string{"Nodes", "Region", "Msgs", "Delivery", "Spanner", "Tri hits", "Wall", "Sharded", "Shd-up", "Allocs", "GC"},
		Rows:    rows,
	}.Render())
	sb.WriteString("\nSharded per-phase wall clock (share of the sharded run's wall):\n")
	for _, p := range r.Points {
		pct := func(d time.Duration) float64 {
			if p.WallSharded <= 0 {
				return 0
			}
			return 100 * float64(d) / float64(p.WallSharded)
		}
		sb.WriteString(fmt.Sprintf(
			"  n=%-5d beacon %5.1f%%  mobility %5.1f%%  rx %5.1f%%  anti-entropy %5.1f%%  spanner %5.1f%%\n",
			p.N, pct(p.Phases.Beacon), pct(p.Phases.Mobility), pct(p.Phases.Rx),
			pct(p.Phases.AntiEntropy), pct(p.SpannerSharded)))
	}
	if len(r.Points) > 0 {
		thr := r.Points[len(r.Points)-1].Thresholds
		sb.WriteString(fmt.Sprintf(
			"Calibrated fork thresholds (%d worker(s)): rx≥%s, beacon≥%s, mobility≥%s, diff≥%s\n",
			workers, fmtThreshold(thr.RxMin), fmtThreshold(thr.BeaconMin),
			fmtThreshold(thr.MobilityMin), fmtThreshold(thr.DiffMin)))
	}
	sb.WriteString("\n\"Spanner\" times the GLR routing loop's local-graph construction\n" +
		"through the shared ldt.Maintainer in the serial run. \"Wall\" is the serial\n" +
		fmt.Sprintf("run and \"Sharded\" the same run on the sharded engine (%d worker(s) here);\n", workers) +
		"\"Shd-up\" is serial over sharded. \"Allocs\" counts heap allocations per\n" +
		"serial run (runtime.ReadMemStats Mallocs) and \"GC\" its garbage-collection\n" +
		"cycles.\n")
	if allIdentical {
		sb.WriteString("Serial and sharded runs produced identical end-to-end reports at every point.\n")
	} else {
		sb.WriteString("WARNING: the serial and sharded runs disagreed at some point — this\n" +
			"should never happen; see the equivalence tests in internal/core and\n" +
			"internal/sim.\n")
	}
	return sb.String()
}

// fmtThreshold renders one fork threshold; serial engines and degenerate
// calibrations carry math.MaxInt, printed as "never".
func fmtThreshold(v int) string {
	if v == math.MaxInt {
		return "never"
	}
	return fmt.Sprintf("%d", v)
}
