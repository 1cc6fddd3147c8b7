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
	"glr/internal/sim"
	"glr/internal/stats"
)

// NodeCountSizes is the default sweep: the paper's evaluation runs at
// tens of nodes; the sweep scales an order of magnitude beyond it.
var NodeCountSizes = []int{100, 250, 500, 1000}

// paperDensity is the paper's node density: 50 nodes in 1500 × 300 m.
const paperDensity = 50.0 / (1500 * 300)

// NodeCountPoint is one sweep point: the same scenario replicated over
// seeds, with wall clock, spanner-construction time, per-phase wall
// clock, and heap-allocation pressure measured.
type NodeCountPoint struct {
	N             int
	Region        mobility.Region
	Delivery      stats.MeanCI
	WallSerial    time.Duration // mean wall clock per run
	SpannerSerial time.Duration // mean spanner-construction time per run
	Phases        sim.PhaseProf // mean per-phase wall clock per run
	Allocs        uint64        // mean heap allocations per run
	GC            uint32        // mean GC cycles per run
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
// (runtime.ReadMemStats), and the per-phase wall clock.
type instrRun struct {
	rep     metrics.Report
	spanner ldt.SpannerStats
	mallocs uint64
	gc      uint32
	phases  sim.PhaseProf
}

// executeInstrumented runs one GLR scenario (paper defaults) with spanner,
// allocation, and per-phase wall-clock instrumentation (which never
// changes the report — see sim.PhaseProf).
func executeInstrumented(ctx context.Context, s sim.Scenario) (instrRun, error) {
	factory, maint, err := core.NewInstrumented(core.DefaultConfig())
	if err != nil {
		return instrRun{}, err
	}
	w, err := sim.NewWorld(s, factory)
	if err != nil {
		return instrRun{}, err
	}
	w.EnablePhaseProfile()
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
	}, nil
}

// NodeCountSweep measures how the simulator scales with node count at
// fixed density. It reports delivery, wall-clock, spanner-construction
// time, per-phase wall clock, and heap-allocation pressure. sizes nil
// means NodeCountSizes. Replications are run sequentially (never in
// parallel) so the wall clock is not distorted by CPU contention;
// o.Runs is capped at 3 — even when overridden via `glrexp -runs` —
// because the point is the timing trend, not tight confidence
// intervals.
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
		point := NodeCountPoint{N: n}
		delivery := make([]float64, runs)
		var allocs uint64
		var gc uint32
		for r := 0; r < runs; r++ {
			s := nodeCountScenario(n, msgs, o.BaseSeed+int64(r))
			point.Region = s.Region
			start := time.Now()
			ir, err := executeInstrumented(ctx, s)
			elapsed := time.Since(start)
			if err != nil {
				return nil, err
			}
			delivery[r] = ir.rep.DeliveryRatio
			point.WallSerial += elapsed
			point.SpannerSerial += ir.spanner.BuildTime
			point.Phases.Beacon += ir.phases.Beacon
			point.Phases.Mobility += ir.phases.Mobility
			point.Phases.Rx += ir.phases.Rx
			point.Phases.AntiEntropy += ir.phases.AntiEntropy
			allocs += ir.mallocs
			gc += ir.gc
		}
		point.Delivery = stats.ConfidenceInterval(delivery, o.Confidence)
		point.WallSerial /= time.Duration(runs)
		point.SpannerSerial /= time.Duration(runs)
		point.Phases.Beacon /= time.Duration(runs)
		point.Phases.Mobility /= time.Duration(runs)
		point.Phases.Rx /= time.Duration(runs)
		point.Phases.AntiEntropy /= time.Duration(runs)
		point.Allocs = allocs / uint64(runs)
		point.GC = gc / uint32(runs)
		res.Points = append(res.Points, point)
		res.msgs = append(res.msgs, msgs)
		o.progress("scale: n=%d -> delivery %.2f, spanner %v, wall %v, allocs %dM",
			n, point.Delivery.Mean,
			point.SpannerSerial.Round(time.Millisecond),
			point.WallSerial.Round(time.Millisecond),
			point.Allocs/1e6)
	}
	return res, nil
}

// Render prints the sweep table.
func (r *NodeCountResult) Render() string {
	rows := make([][]string, len(r.Points))
	for i, p := range r.Points {
		rows[i] = []string{
			fmt.Sprintf("%d", p.N),
			fmt.Sprintf("%.0fx%.0f m", p.Region.W, p.Region.H),
			fmt.Sprintf("%d", r.msgs[i]),
			fmt.Sprintf("%.2f±%.2f", p.Delivery.Mean, p.Delivery.HalfWidth),
			p.SpannerSerial.Round(time.Millisecond).String(),
			p.WallSerial.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0fM", float64(p.Allocs)/1e6),
			fmt.Sprintf("%d", p.GC),
		}
	}
	var sb strings.Builder
	sb.WriteString(asciiplot.Table{
		Title:   fmt.Sprintf("Node-count scaling sweep (fixed density, GLR, %d run(s)/point)", r.Runs),
		Headers: []string{"Nodes", "Region", "Msgs", "Delivery", "Spanner", "Wall", "Allocs", "GC"},
		Rows:    rows,
	}.Render())
	sb.WriteString("\nPer-phase wall clock (share of the run's wall):\n")
	for _, p := range r.Points {
		pct := func(d time.Duration) float64 {
			if p.WallSerial <= 0 {
				return 0
			}
			return 100 * float64(d) / float64(p.WallSerial)
		}
		sb.WriteString(fmt.Sprintf(
			"  n=%-5d beacon %5.1f%%  mobility %5.1f%%  rx %5.1f%%  anti-entropy %5.1f%%  spanner %5.1f%%\n",
			p.N, pct(p.Phases.Beacon), pct(p.Phases.Mobility), pct(p.Phases.Rx),
			pct(p.Phases.AntiEntropy), pct(p.SpannerSerial)))
	}
	sb.WriteString("\n\"Spanner\" times the GLR routing loop's local-graph construction\n" +
		"through the shared ldt.Maintainer. \"Wall\" is one run's wall clock on one\n" +
		"goroutine, phase attribution included. \"Allocs\" counts heap allocations per run\n" +
		"(runtime.ReadMemStats Mallocs) and \"GC\" its garbage-collection cycles.\n")
	return sb.String()
}
