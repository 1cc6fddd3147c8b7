// Command glrexp regenerates the paper's evaluation artifacts — every
// table and figure of §3 — and prints them with paper-vs-measured
// comparisons.
//
// Examples:
//
//	glrexp -list
//	glrexp -exp fig7
//	glrexp -exp tab6 -scale paper
//	glrexp -all
//	glrexp -exp scale -sizes 500 -runs 1 -cpuprofile cpu.pprof -memprofile mem.pprof
//	glrexp -exp scale -sizes 10000 -memreport mem.json
//
// -sizes entries at or above experiments.GiantTierNodes run the reduced
// giant-world protocol (GiantSweep): one run each, peak-heap sampling.
// -memreport writes their machine-readable digest for cmd/benchgate's
// -gate-mem-ceiling CI gate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"glr"
	"glr/internal/experiments"
)

func main() {
	// All work happens in run so deferred profile flushes execute before
	// the process exits — os.Exit here would truncate the CPU profile
	// and drop the heap profile exactly when a failing run needs them.
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "glrexp:", err)
		if err == errUsage {
			flag.Usage()
			os.Exit(2)
		}
		os.Exit(1)
	}
}

var errUsage = fmt.Errorf("need -list, -exp, or -all")

func run() error {
	var (
		list       = flag.Bool("list", false, "list available experiments")
		exp        = flag.String("exp", "", "experiment id to run (fig1, fig3, fig4..7, tab2..6, ablate, scale)")
		all        = flag.Bool("all", false, "run every experiment")
		scale      = flag.String("scale", "quick", `"quick" (3 runs, 20% load) or "paper" (10 runs, full load)`)
		verbose    = flag.Bool("v", false, "print per-point progress")
		sizes      = flag.String("sizes", "", "scale experiment only: comma-separated node counts (e.g. 500 or 250,1000)")
		runs       = flag.Int("runs", 0, "scale experiment only: override replications per point (the sweep caps this at 3; see NodeCountSweep)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile at exit to this file")
		memreport  = flag.String("memreport", "", "scale experiment only: write the giant-tier peak-heap/wall-clock digest (JSON) to this file")
	)
	flag.Parse()

	sc := glr.Quick
	switch *scale {
	case "quick":
	case "paper":
		sc = glr.Paper
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}

	if *list {
		for _, info := range glr.Experiments() {
			fmt.Printf("%-5s %-9s %s\n", info.ID, info.Title, info.Description)
		}
		return nil
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memprofile)

	var progress func(string, ...any)
	if *verbose {
		progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
		}
	}

	// Ctrl-C abandons queued replications and stops in-flight
	// simulations between event batches.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	runOne := func(id string) error {
		out, err := runExperiment(ctx, id, sc, progress, *sizes, *runs, *memreport)
		if err != nil {
			return err
		}
		fmt.Println(out)
		return nil
	}

	switch {
	case *all:
		for _, info := range glr.Experiments() {
			fmt.Printf("=== %s: %s ===\n", info.Title, info.Description)
			if err := runOne(info.ID); err != nil {
				return err
			}
		}
		return nil
	case *exp != "":
		return runOne(*exp)
	default:
		return errUsage
	}
}

// runExperiment dispatches one artifact; the scale sweep honours the
// -sizes/-runs/-memreport overrides (the CI profile job runs a single
// 500-node point; the CI memory-ceiling job a single 10k-node giant
// point). Sizes at or above experiments.GiantTierNodes route to the
// reduced giant-world protocol.
func runExperiment(ctx context.Context, id string, sc glr.Scale, progress func(string, ...any), sizes string, runs int, memreport string) (string, error) {
	if id != "scale" || (sizes == "" && runs == 0 && memreport == "") {
		return glr.RunExperimentContext(ctx, id, sc, progress)
	}
	o := experiments.QuickOptions()
	if sc == glr.Paper {
		o = experiments.PaperOptions()
	}
	o.Ctx = ctx
	o.Progress = progress
	if runs > 0 {
		o.Runs = runs
	}
	sz, err := parseSizes(sizes)
	if err != nil {
		return "", err
	}
	var small, giant []int
	for _, n := range sz {
		if n >= experiments.GiantTierNodes {
			giant = append(giant, n)
		} else {
			small = append(small, n)
		}
	}
	var out strings.Builder
	if len(small) > 0 || sizes == "" {
		res, err := experiments.NodeCountSweep(o, small)
		if err != nil {
			return "", err
		}
		out.WriteString(res.Render())
	}
	gres := &experiments.GiantResult{}
	if len(giant) > 0 {
		if gres, err = experiments.GiantSweep(o, giant); err != nil {
			return "", err
		}
		out.WriteString(gres.Render())
	}
	if memreport != "" {
		data, err := json.MarshalIndent(gres.MemReport(), "", "  ")
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(memreport, append(data, '\n'), 0o644); err != nil {
			return "", err
		}
	}
	return out.String(), nil
}

// parseSizes parses "500" or "250,1000" ("" means the default sweep).
func parseSizes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("glrexp: bad -sizes entry %q: %w", p, err)
		}
		out = append(out, n)
	}
	return out, nil
}

// writeMemProfile records the post-GC heap at exit.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "glrexp:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "glrexp:", err)
	}
}
