package main

import (
	"fmt"
	"math"

	"glr/internal/core"
	"glr/internal/epidemic"
	"glr/internal/fault"
	"glr/internal/ldt"
	"glr/internal/mobility"
	"glr/internal/sim"
)

// workload is one family of benchmark inputs: the world template, the
// protocol it runs, and the core budget that picks the engine. The
// benchmark never sets an engine knob; sim.Scenario.Parallelism stays at
// its automatic default, so GOMAXPROCS alone selects the serial engine
// (1 core) or the sharded one (2 cores).
type workload struct {
	name  string
	cores int
	proto string // "glr" or "epidemic"
	// twin names a workload that runs the identical worlds on another
	// engine; the suite fails a run whose report differs from its twin's.
	twin  string
	why   string
	world func(seed int64) sim.Scenario
}

// worlds lists the workloads in the order the suite runs them.
var worlds = []workload{
	{
		name: "paper50-glr", cores: 1, proto: "glr",
		why:   "1 core. Paper Table 1 world (50 nodes, 1500x300 m) under GLR: ~350k events per wall-second, so per-event cost in des, the route check, small-view ldt and mac dominates",
		world: func(seed int64) sim.Scenario { return paperWorld(seed, 1980, 2580) },
	},
	{
		name: "paper50-epidemic", cores: 1, proto: "epidemic",
		why:   "1 core. The paper's comparator on the same world: anti-entropy dominates and no spanner is built, so ldt or geom work should leave it unchanged",
		world: func(seed int64) sim.Scenario { return paperWorld(seed, 1180, 1780) },
	},
	{
		name: "paper50-disrupted", cores: 1, proto: "glr",
		why:   "1 core. paper50-glr plus churn, link blackouts and GPS noise: the only workload through internal/fault, with MAC fault drops, custody returns and retries",
		world: disruptedWorld,
	},
	{
		name: "dense1k-glr", cores: 2, proto: "glr", twin: "dense1k-glr-1core",
		why:   "2 cores. 1000 nodes with about ten neighbors each: large two-hop views make ldt dominant, and the auto engine runs the shard pool and speculative spanner builds",
		world: dense1kWorld,
	},
	{
		name: "dense1k-glr-1core", cores: 1, proto: "glr", twin: "dense1k-glr",
		why:   "1 core. The worlds of dense1k-glr with the auto engine serial: the pair isolates the within-run parallel engine, and their reports must be identical",
		world: dense1kWorld,
	},
	{
		name: "giant10k-glr", cores: 2, proto: "glr",
		why:   "2 cores. 10000 nodes at paper density: compact tables, aggregated beacons and a large event set; mac resolution dominates, and set-up is the largest of any workload",
		world: giant10kWorld,
	},
}

// findWorkload returns the named workload.
func findWorkload(name string) (workload, error) {
	for _, w := range worlds {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// worldSeed derives the scenario seed of the i-th world a run draws from
// the benchmark seed. World 0 is the seed itself; the stride keeps the
// worlds of nearby benchmark seeds disjoint.
func worldSeed(seed int64, i int) int64 { return seed + int64(i)*1_000_003 }

// paperDensity is the paper's node density: 50 nodes on 1500 × 300 m.
const paperDensity = 50.0 / (1500 * 300)

// paperWorld is the paper's Table-1 world: 50 nodes, 1500 × 300 m,
// 100 m range, random waypoint at 0–20 m/s, and the paper's round-robin
// traffic.
func paperWorld(seed int64, msgs int, horizon float64) sim.Scenario {
	s := sim.DefaultScenario(100)
	s.Seed = seed
	s.Traffic = sim.PaperTraffic(msgs)
	s.SimTime = horizon
	return s
}

// disruptedWorld is paperWorld with three composed fault models. The
// Byzantine model is left out: a 6% Byzantine share multiplies data
// frames and run time several-fold, which is a robustness question.
func disruptedWorld(seed int64) sim.Scenario {
	s := paperWorld(seed, 1980, 2580)
	s.Faults = []fault.Spec{
		{Kind: fault.Churn, Rate: 0.002, Duration: 30},
		{Kind: fault.LinkBlackout, Rate: 0.1, Period: 10},
		{Kind: fault.GPSNoise, Sigma: 10},
	}
	return s
}

// dense1kWorld puts 1000 nodes on 3000 × 1000 m (about ten neighbors
// each) with 200 uniform messages at 10 per second.
func dense1kWorld(seed int64) sim.Scenario {
	s := sim.DefaultScenario(100)
	s.Seed = seed
	s.N = 1000
	s.Region = mobility.Region{W: 3000, H: 1000}
	s.Traffic = sim.UniformTraffic(s.N, 200, 10, seed*977+5)
	s.SimTime = 40
	return s
}

// giant10kWorld puts 10000 nodes at the paper's density on a 5:1 strip
// with 50 uniform messages at 4 per second over a 15 s horizon, short
// enough that one run measures several worlds.
func giant10kWorld(seed int64) sim.Scenario {
	s := sim.DefaultScenario(100)
	s.Seed = seed
	s.N = 10000
	h := math.Sqrt(float64(s.N) / paperDensity / 5)
	s.Region = mobility.Region{W: 5 * h, H: h}
	s.Traffic = sim.UniformTraffic(s.N, 50, 4, seed*977+5)
	s.SimTime = 15
	return s
}

// shortened returns s cut to frac of its horizon, dropping the traffic
// that would fall after it (the warm-up pass).
func shortened(s sim.Scenario, frac float64) sim.Scenario {
	s.SimTime *= frac
	kept := make([]sim.TrafficItem, 0, len(s.Traffic))
	for _, ti := range s.Traffic {
		if ti.At <= s.SimTime {
			kept = append(kept, ti)
		}
	}
	s.Traffic = kept
	return s
}

// factory returns the workload's protocol factory with the protocol
// defaults, and for GLR the shared spanner cache the trace reads.
func (w workload) factory(instrumented bool) (sim.ProtocolFactory, *ldt.Maintainer, error) {
	switch w.proto {
	case "glr":
		if !instrumented {
			f, err := core.New(core.DefaultConfig())
			return f, nil, err
		}
		return core.NewInstrumented(core.DefaultConfig())
	case "epidemic":
		f, err := epidemic.New(epidemic.DefaultConfig())
		return f, nil, err
	}
	return nil, nil, fmt.Errorf("workload %s: unknown protocol %q", w.name, w.proto)
}
