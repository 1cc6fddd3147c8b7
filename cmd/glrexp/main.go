// Command glrexp regenerates the paper's evaluation artifacts — every
// table and figure of §3 — and prints them with paper-vs-measured
// comparisons. Each artifact is a set of scenario-matrix sections
// (internal/experiments) that the matrix driver runs; with -cache DIR
// every computed cell is kept in DIR, as glratlas keeps the atlas's, and
// a later run serves it from there instead of simulating it again.
//
// Examples:
//
//	glrexp -list
//	glrexp -exp fig7
//	glrexp -exp tab6 -scale paper
//	glrexp -all -cache exp-cache
//	glrexp -exp ablate -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Engine cost (wall clock, per-layer split, peak heap) is measured by
// the benchmark in bench/, not here.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"

	"glr/internal/experiments"
	"glr/internal/matrix"
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
		exp        = flag.String("exp", "", "experiment id to run (fig1, fig3, fig4..7, tab2..6, ablate, disruption)")
		all        = flag.Bool("all", false, "run every experiment")
		scale      = flag.String("scale", "quick", `"quick" (3 runs, 20% load) or "paper" (10 runs, full load)`)
		cacheDir   = flag.String("cache", "", "result cache directory (empty disables caching)")
		verbose    = flag.Bool("v", false, "print per-run progress")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	o := experiments.QuickOptions()
	switch *scale {
	case "quick":
	case "paper":
		o = experiments.PaperOptions()
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-5s %-9s %s\n", e.ID, e.Title, e.Description)
		}
		return nil
	}

	var exps []experiments.Experiment
	switch {
	case *all:
		exps = experiments.All()
	case *exp != "":
		e, err := experiments.Lookup(*exp)
		if err != nil {
			return err
		}
		exps = append(exps, e)
	default:
		return errUsage
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

	d := &matrix.Driver{Cache: *cacheDir}
	if *verbose {
		d.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
		}
	}

	// Ctrl-C abandons queued replications and stops in-flight
	// simulations between event batches.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	arts, atlas, err := experiments.Run(ctx, d, o, exps...)
	if err != nil {
		return err
	}
	for i, a := range arts {
		if *all {
			fmt.Printf("=== %s: %s ===\n", exps[i].Title, exps[i].Description)
		}
		fmt.Println(a.Render())
	}
	if *cacheDir != "" {
		fmt.Fprintf(os.Stderr, "glrexp: %d cell(s) computed, %d served from %s\n",
			atlas.Computed, atlas.CacheHits, *cacheDir)
	}
	return nil
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
