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

	"glr"
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
		verbose    = flag.Bool("v", false, "print per-point progress")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile at exit to this file")
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
		out, err := glr.RunExperimentContext(ctx, id, sc, progress)
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
