// Command glrsim runs DTN simulation scenarios from flags and prints
// their metrics — one run, a multi-seed replication sweep, or a
// GLR-vs-epidemic comparison on identical workloads. It is a thin CLI
// over the composable glr scenario API: mobility models and traffic
// workloads plug in by name, a sampling interval streams a time series
// of the run, and replication sweeps use all cores.
//
// Examples:
//
//	glrsim -range 100 -messages 500
//	glrsim -range 50 -messages 890 -storage 100 -compare
//	glrsim -range 100 -protocol epidemic -seed 7
//	glrsim -mobility walk -workload poisson -rate 2 -messages 400
//	glrsim -range 100 -compare -runs 10            # mean ± 90% CI on all cores
//	glrsim -range 100 -sample 60                   # per-minute time series
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"glr"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "glrsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		protocol  = flag.String("protocol", "glr", `routing protocol: "glr" or "epidemic"`)
		rangeM    = flag.Float64("range", 100, "transmission range in metres (paper: 50-250)")
		nodes     = flag.Int("nodes", 50, "number of mobile nodes")
		messages  = flag.Int("messages", 200, "number of generated messages")
		simTime   = flag.Float64("time", 0, "simulation horizon in seconds (0 = auto)")
		storage   = flag.Int("storage", 0, "per-node storage limit in messages (0 = unlimited)")
		seed      = flag.Int64("seed", 1, "RNG seed (base seed for -runs sweeps)")
		width     = flag.Float64("width", 1500, "region width, metres")
		height    = flag.Float64("height", 300, "region height, metres")
		compare   = flag.Bool("compare", false, "run both protocols on identical workloads")
		runs      = flag.Int("runs", 1, "replications (seeds seed..seed+runs-1), aggregated as mean ± 90% CI")
		workers   = flag.Int("workers", 0, "worker pool size for -runs > 1 (0 = all cores)")
		sample    = flag.Float64("sample", 0, "print a time-series sample every this many simulated seconds (single runs only)")
		mobModel  = flag.String("mobility", "waypoint", `mobility model: "waypoint", "static", or "walk"`)
		maxSpeed  = flag.Float64("speed", 20, "top speed, m/s (waypoint and walk)")
		pause     = flag.Float64("pause", 0, "waypoint pause time, seconds")
		legTime   = flag.Float64("leg", 20, "random-walk straight-leg duration, seconds")
		workModel = flag.String("workload", "paper", `traffic workload: "paper", "uniform", "poisson", or "hotspot"`)
		rate      = flag.Float64("rate", 1, "workload message rate, msgs/s (uniform, poisson, hotspot)")
		sinks     = flag.Int("sinks", 1, "hotspot workload: number of sink nodes")
		copies    = flag.Int("copies", 0, "force GLR copy count (0 = Algorithm 1 decides)")
		check     = flag.Float64("check", 0, "GLR route-check interval in seconds (0 = paper default 0.9)")
		noCustody = flag.Bool("no-custody", false, "disable GLR custody transfer")
		location  = flag.String("location", "source", `destination-location knowledge: "source", "all", or "none"`)
	)
	flag.Parse()
	if *runs < 1 {
		return fmt.Errorf("-runs %d must be at least 1", *runs)
	}

	// Ctrl-C abandons in-flight simulations cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var mob glr.Mobility
	switch *mobModel {
	case "waypoint":
		mob = glr.Waypoint{MaxSpeed: *maxSpeed, Pause: *pause}
	case "static":
		mob = glr.Static{}
	case "walk":
		mob = glr.RandomWalk{MaxSpeed: *maxSpeed, LegTime: *legTime}
	default:
		return fmt.Errorf("unknown mobility model %q", *mobModel)
	}

	var work glr.Workload
	switch *workModel {
	case "paper":
		work = glr.PaperWorkload{Messages: *messages}
	case "uniform":
		work = glr.UniformWorkload{Messages: *messages, Rate: *rate}
	case "poisson":
		work = glr.PoissonWorkload{Messages: *messages, Rate: *rate}
	case "hotspot":
		work = glr.HotspotWorkload{Messages: *messages, Rate: *rate, Sinks: *sinks}
	default:
		return fmt.Errorf("unknown workload %q", *workModel)
	}

	opts := []glr.Option{
		glr.WithProtocol(glr.Protocol(*protocol)),
		glr.WithNodes(*nodes),
		glr.WithRange(*rangeM),
		glr.WithRegion(*width, *height),
		glr.WithSeed(*seed),
		glr.WithMobility(mob),
		glr.WithWorkload(work),
		glr.WithGLR(glr.GLRConfig{
			CheckInterval:  *check,
			Copies:         *copies,
			DisableCustody: *noCustody,
			Location:       *location,
		}),
	}
	// Any value but the 0 default goes through its option, whose check
	// rejects negative and non-finite values.
	if *simTime != 0 {
		opts = append(opts, glr.WithSimTime(*simTime))
	}
	if *storage != 0 {
		opts = append(opts, glr.WithStorageLimit(*storage))
	}
	if *sample != 0 && (*runs > 1 || *compare) {
		// Runner sweeps run replications concurrently and detach
		// observers; refuse rather than silently dropping the request.
		return fmt.Errorf("-sample needs a single plain run (drop -compare / -runs)")
	}
	if *sample != 0 {
		opts = append(opts, glr.WithObserver(&glr.Observer{
			SampleEvery: *sample,
			OnSample: func(s glr.Sample) {
				fmt.Printf("t=%6.0fs  generated=%-4d delivered=%-4d ratio=%.2f  latency=%6.1fs  buffered=%d (max %d/node)  frames: ctrl=%d data=%d ack=%d\n",
					s.Time, s.Generated, s.Delivered, s.DeliveryRatio, s.AvgLatency,
					s.BufferTotal, s.BufferMax, s.ControlFrames, s.DataFrames, s.Acks)
			},
		}))
	}

	sc, err := glr.NewScenario(opts...)
	if err != nil {
		return err
	}

	switch {
	case *runs > 1 && *compare:
		r := glr.Runner{Workers: *workers}
		cmp, err := r.Compare(ctx, sc, *runs)
		if err != nil {
			return err
		}
		fmt.Printf("GLR:      %v\n", cmp.GLR)
		fmt.Printf("Epidemic: %v\n", cmp.Epidemic)
	case *runs > 1:
		r := glr.Runner{Workers: *workers}
		sum, err := r.Replicate(ctx, sc, *runs)
		if err != nil {
			return err
		}
		fmt.Printf("%v\n", sum)
		for i, res := range sum.Results {
			fmt.Printf("  seed %-3d %v\n", sum.Seeds[i], res)
		}
	case *compare:
		r := glr.Runner{Workers: *workers}
		cmp, err := r.Compare(ctx, sc, 1)
		if err != nil {
			return err
		}
		fmt.Printf("GLR:      %v\n", cmp.GLR.Results[0])
		fmt.Printf("Epidemic: %v\n", cmp.Epidemic.Results[0])
	default:
		res, err := sc.RunContext(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("%-9s %v\n", *protocol+":", res)
		fmt.Printf("frames: control=%d data=%d acks=%d duplicates=%d\n",
			res.ControlFrames, res.DataFrames, res.Acks, res.Duplicates)
	}
	return nil
}
