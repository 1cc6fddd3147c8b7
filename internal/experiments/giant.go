package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"glr/internal/asciiplot"
	"glr/internal/core"
	"glr/internal/mobility"
	"glr/internal/sim"
)

// GiantTierNodes is the node count at which the scale sweep switches to
// the reduced giant-world protocol: one serial run, a short fixed
// horizon, and a sampled heap-peak instead of allocation counting.
// Below it NodeCountSweep applies; above it that protocol's 2×runs
// full-horizon executions would take hours and its alloc counters would
// say nothing about residency, which is the constraint that actually
// binds at 10k–100k nodes.
const GiantTierNodes = 5000

// giantHorizon and giantMsgs bound the giant tier's work: the point is
// wall clock per simulated second and resident memory at 10k–100k
// nodes, not delivery statistics, so the horizon is short and the
// traffic load nominal.
const (
	giantHorizon = 60.0
	giantMsgs    = 100
)

// GiantPoint is one giant-tier point: one run of the scenario with wall
// clock and peak heap measured.
type GiantPoint struct {
	N        int
	Region   mobility.Region
	Msgs     int
	Delivery float64
	Events   uint64 // events dispatched
	Wall     time.Duration
	Peak     uint64 // peak sampled HeapAlloc bytes
}

// GiantResult is the giant-tier sweep artifact.
type GiantResult struct {
	Points []GiantPoint
}

// MemPoint is one scenario's machine-readable memory digest inside the
// report `glrexp -memreport` writes.
type MemPoint struct {
	N             int    `json:"n"`
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	WallMs        int64  `json:"wall_ms"`
}

// MemReport digests the sweep for cmd/benchgate's -gate-mem-ceiling
// mode: scenario name → peak heap and wall clock, gated
// against the committed budgets in ci/mem_budget.json.
func (r *GiantResult) MemReport() map[string]MemPoint {
	out := make(map[string]MemPoint, len(r.Points))
	for _, p := range r.Points {
		out[fmt.Sprintf("scale-%d", p.N)] = MemPoint{
			N:             p.N,
			PeakHeapBytes: p.Peak,
			WallMs:        p.Wall.Milliseconds(),
		}
	}
	return out
}

// sampleHeapPeak starts a ~20 Hz runtime.ReadMemStats sampler and
// returns a stop function yielding the peak HeapAlloc it observed
// (including one final sample at stop time). Sampling sees live heap
// plus not-yet-collected garbage — exactly the residency a host must
// provision for.
func sampleHeapPeak() (stop func() uint64) {
	done := make(chan struct{})
	result := make(chan uint64, 1)
	go func() {
		var m runtime.MemStats
		var peak uint64
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				runtime.ReadMemStats(&m)
				result <- max(peak, m.HeapAlloc)
				return
			case <-tick.C:
				runtime.ReadMemStats(&m)
				peak = max(peak, m.HeapAlloc)
			}
		}
	}()
	return func() uint64 { close(done); return <-result }
}

// giantScenario is nodeCountScenario clamped to the giant tier's fixed
// short horizon and nominal traffic load.
func giantScenario(n int, seed int64) sim.Scenario {
	s := nodeCountScenario(n, giantMsgs, seed)
	s.SimTime = giantHorizon
	return s
}

// GiantSweep measures giant worlds (10k–100k nodes) at the paper's
// density: each size runs the GLR scenario once, recording wall clock,
// the peak sampled heap, and the dispatched-event count. One
// replication per size: the trend, not the confidence interval, is the
// artifact.
func GiantSweep(o Options, sizes []int) (*GiantResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	res := &GiantResult{}
	for _, n := range sizes {
		if n < GiantTierNodes {
			return nil, fmt.Errorf("experiments: giant tier is for ≥ %d nodes, got %d", GiantTierNodes, n)
		}
		s := giantScenario(n, o.BaseSeed)
		point := GiantPoint{N: n, Region: s.Region, Msgs: giantMsgs}
		factory, err := core.New(core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		// Collect earlier garbage so the peak measures this run's own
		// residency, then sample across world construction (where the
		// tables allocate) and the run.
		runtime.GC()
		stopSampler := sampleHeapPeak()
		start := time.Now()
		w, err := sim.NewWorld(s, factory)
		if err != nil {
			stopSampler()
			return nil, err
		}
		rep, err := w.RunContext(ctx)
		point.Wall = time.Since(start)
		point.Peak = stopSampler()
		if err != nil {
			return nil, err
		}
		point.Delivery = rep.DeliveryRatio
		point.Events = w.Scheduler().Processed()
		res.Points = append(res.Points, point)
		o.progress("scale(giant): n=%d -> wall %v, peak heap %s, %d events",
			n, point.Wall.Round(time.Millisecond), fmtBytes(point.Peak), point.Events)
	}
	return res, nil
}

// Render prints the giant-tier table.
func (r *GiantResult) Render() string {
	rows := make([][]string, len(r.Points))
	for i, p := range r.Points {
		rows[i] = []string{
			fmt.Sprintf("%d", p.N),
			fmt.Sprintf("%.0fx%.0f m", p.Region.W, p.Region.H),
			fmt.Sprintf("%.0f s", giantHorizon),
			fmt.Sprintf("%.2f", p.Delivery),
			fmt.Sprintf("%dM", p.Events/1e6),
			p.Wall.Round(time.Millisecond).String(),
			fmtBytes(p.Peak),
		}
	}
	var sb strings.Builder
	sb.WriteString(asciiplot.Table{
		Title:   "Giant-world tier (fixed density, GLR, 1 run/point)",
		Headers: []string{"Nodes", "Region", "Horizon", "Delivery", "Events", "Wall", "Peak heap"},
		Rows:    rows,
	}.Render())
	sb.WriteString("\"Peak heap\" is the maximum HeapAlloc a ~20 Hz runtime.ReadMemStats\n" +
		"sampler observed across world construction and the run;\n" +
		"`glrexp -memreport` emits these numbers for benchgate's\n" +
		"-gate-mem-ceiling CI gate.\n")
	return sb.String()
}

// fmtBytes renders a byte count with a binary-scaled unit.
func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
