// Package glr is a Go reproduction of "A Geometric Routing Protocol in
// Disruption Tolerant Network" (Du, Kranakis, Nayak; ICDCS Workshops
// 2009): the GLR protocol — greedy geographic routing over a localized
// Delaunay triangulation spanner with controlled multi-copy flooding
// along MaxDSTD/MinDSTD/MidDSTD trees, store-and-forward, face routing,
// location diffusion and custody transfer — together with the epidemic
// routing baseline, a discrete-event wireless network simulator (CSMA/CA
// MAC, two-ray ground propagation, random waypoint mobility), and a
// harness that regenerates every table and figure of the paper's
// evaluation.
//
// Quick start — describe a scenario with functional options and run it:
//
//	sc, err := glr.NewScenario(
//		glr.WithRange(100),          // metres (paper: 50–250)
//		glr.WithWorkload(glr.PaperWorkload{Messages: 200}),
//		glr.WithSeed(42),
//	)
//	res, err := sc.Run()
//	fmt.Println(res)
//
// WithProtocol(glr.Epidemic) runs the faithful Vahdat–Becker baseline,
// which has no knobs; WithGLR tunes the paper's protocol:
//
//	sc, err := glr.NewScenario(
//		glr.WithGLR(glr.GLRConfig{CheckInterval: 0.5, DisableCustody: true}),
//	)
//
// Everything is pluggable. Mobility models (the paper's random
// waypoint, static placement, a reflecting random walk, scripted
// traces):
//
//	sc, err := glr.NewScenario(
//		glr.WithMobility(glr.RandomWalk{MaxSpeed: 10, LegTime: 30}),
//	)
//
// Traffic workloads (the paper's round-robin pattern, uniform random
// pairs, Poisson arrivals, hotspot sinks, explicit schedules — or any
// type implementing Workload):
//
//	sc, err := glr.NewScenario(
//		glr.WithWorkload(glr.PoissonWorkload{Messages: 500, Rate: 2}),
//	)
//
// Observe a run in flight instead of waiting for the final digest —
// per-event callbacks plus a periodic time series of delivery, latency,
// buffer occupancy, and control overhead:
//
//	sc, err := glr.NewScenario(glr.WithObserver(&glr.Observer{
//		OnDelivered: func(e glr.DeliveryEvent) { fmt.Println("delivered", e.Src, e.Seq, e.Latency()) },
//		SampleEvery: 60,
//		OnSample:    func(s glr.Sample) { fmt.Printf("t=%gs ratio=%.2f buffered=%d\n", s.Time, s.DeliveryRatio, s.BufferTotal) },
//	}))
//
// Replicate across seeds — and compare protocols — on all cores, with
// mean ± confidence-interval aggregation and context cancellation:
//
//	var r glr.Runner // zero value: all CPUs, 90% confidence
//	cmp, err := r.Compare(ctx, sc, 10)
//	fmt.Println(cmp.GLR.DeliveryRatio, cmp.Epidemic.DeliveryRatio)
//
// Regenerate a paper artifact from the command line (cmd/glrexp runs
// each table and figure as matrix sections; -cache reuses results):
//
//	glrexp -exp fig7
//
// # Performance & scaling
//
// Every simulator layer runs one production path; the reference
// implementation each fast path replaced survives only as a test oracle:
//
//   - The event core (internal/des) is a calendar queue with O(1)
//     amortized schedule and dispatch, checked against a binary heap.
//   - The wireless medium (internal/mac) resolves receptions, carrier
//     sensing, and interference through uniform-grid spatial indexes,
//     checked against all-pairs scans.
//   - Per-node neighbor tables (internal/dtn) are rows sorted by id,
//     O(neighborhood) per node at every world size, checked against a
//     map-backed table.
//   - The per-check k-LDTG spanner (internal/ldt) is built from each
//     node's view by one empty-circle scan per candidate edge over the
//     node's three-hop set, scanning the neighbors' two-hop witness sets
//     only for an edge the three-hop points reject, and is checked,
//     neighbor order included, against a construction that triangulates
//     every witness set.
//   - Beacons fire from one ring event in (time, id) order, checked
//     against each node's phase + k·interval schedule.
//
// Each run steps its world on one goroutine. Multi-seed sweeps use
// several cores through Runner.Workers, which runs replications
// concurrently:
//
//	sum, err := glr.Runner{Workers: 4}.Replicate(ctx, sc, 20)
//
// docs/ARCHITECTURE.md maps each layer to its oracle test, and
// bench/README.md describes the repository benchmark and its numbers.
package glr

import (
	"fmt"

	"glr/internal/core"
	"glr/internal/epidemic"
	"glr/internal/ldt"
	"glr/internal/sim"
)

// Protocol selects the routing protocol for a run.
type Protocol string

// Supported protocols.
const (
	// GLR is the paper's Geometric Localized Routing protocol.
	GLR Protocol = "glr"
	// Epidemic is the Vahdat–Becker benchmark.
	Epidemic Protocol = "epidemic"
)

// Message is one scheduled message generation.
type Message struct {
	Src, Dst int
	At       float64
}

// GLRConfig exposes the GLR knobs the paper's evaluation varies: the
// route-check interval (Figure 3), the copy count (Algorithm 1), custody
// transfer (Table 3) and location knowledge (Table 2), plus the three
// design choices the ablation study switches off: the LDTG spanner, face
// routing and the progress hysteresis. The zero value and unset fields
// keep the paper's defaults; the LDTG depth is fixed at the paper's two
// hops. The epidemic baseline has no knobs.
type GLRConfig struct {
	// CheckInterval is the store-and-forward route re-check period
	// (paper default 0.9 s; Figure 3 sweeps it).
	CheckInterval float64
	// Copies forces the number of message copies; 0 uses Algorithm 1
	// (network sparsity decides).
	Copies int
	// DisableCustody turns off custody transfer (§2.3.2; Table 3
	// measures the cost of running without it).
	DisableCustody bool
	// Location selects the Table-2 destination-knowledge regime:
	// "source" (default), "all", or "none".
	Location string
	// Spanner selects the routing graph: "ldtg" (default, the paper's
	// localized Delaunay triangulation), "gabriel" (a simpler planar
	// spanner) or "udg" (every unit-disk neighbor, no planarization).
	Spanner string
	// DisableFaceRouting makes a local minimum store and wait instead of
	// walking faces (§2.3).
	DisableFaceRouting bool
	// DisableHysteresis hands a message to any neighbor closer to the
	// destination, without the default margin of 0.2 × range.
	DisableHysteresis bool
}

// Result digests one run.
type Result struct {
	Generated      int
	Delivered      int
	DeliveryRatio  float64
	AvgLatency     float64 // seconds
	AvgHops        float64
	MaxPeakStorage int
	AvgPeakStorage float64
	Duplicates     int
	ControlFrames  uint64
	DataFrames     uint64
	Acks           uint64
}

// String implements fmt.Stringer.
func (r Result) String() string {
	return fmt.Sprintf("delivered %d/%d (%.1f%%), latency %.2fs, hops %.2f, peak storage max %d avg %.1f",
		r.Delivered, r.Generated, 100*r.DeliveryRatio, r.AvgLatency, r.AvgHops,
		r.MaxPeakStorage, r.AvgPeakStorage)
}

// validate rejects knob values outside their domain (nil is valid:
// paper defaults).
func (o *GLRConfig) validate() error {
	if o == nil {
		return nil
	}
	switch {
	case o.CheckInterval < 0 || !finite(o.CheckInterval):
		return fmt.Errorf("glr: check interval %v must be nonnegative and finite", o.CheckInterval)
	case o.Copies < 0:
		return fmt.Errorf("glr: copy count %d must be nonnegative", o.Copies)
	}
	switch o.Location {
	case "", "source", "all", "none":
	default:
		return fmt.Errorf("glr: unknown location regime %q", o.Location)
	}
	if _, ok := spanners[o.Spanner]; !ok {
		return fmt.Errorf("glr: unknown spanner %q", o.Spanner)
	}
	return nil
}

// spanners maps each GLRConfig.Spanner name onto its routing graph.
var spanners = map[string]ldt.Variant{
	"":        ldt.VariantLDTG,
	"ldtg":    ldt.VariantLDTG,
	"gabriel": ldt.VariantGabriel,
	"udg":     ldt.VariantUDG,
}

// buildFactory constructs the scenario's protocol factory, validating
// every knob (invalid values error instead of passing through as
// "unset").
func buildFactory(p Protocol, g *GLRConfig) (sim.ProtocolFactory, error) {
	// The GLR knobs validate regardless of the selected protocol:
	// Runner.Compare runs the same scenario under either.
	if err := g.validate(); err != nil {
		return nil, err
	}
	switch p {
	case Epidemic:
		return epidemic.New(epidemic.DefaultConfig())
	case GLR, "":
		gc := core.DefaultConfig()
		if o := g; o != nil {
			if o.CheckInterval > 0 {
				gc.CheckInterval = o.CheckInterval
			}
			if o.Copies > 0 {
				gc.Copies = o.Copies
			}
			gc.Custody = !o.DisableCustody
			switch o.Location {
			case "all":
				gc.Location = core.LocAllKnow
			case "none":
				gc.Location = core.LocNoneKnow
			}
			gc.Spanner = spanners[o.Spanner]
			gc.DisableFaceRouting = o.DisableFaceRouting
			if o.DisableHysteresis {
				gc.ProgressHysteresis = 0
			}
		}
		return core.New(gc)
	default:
		return nil, fmt.Errorf("glr: unknown protocol %q", p)
	}
}
