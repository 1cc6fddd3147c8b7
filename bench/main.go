// Command bench is the repository benchmark: it runs fixed simulator
// workloads through sim.NewWorld and World.Run, checks their reports,
// and prints end-to-end metrics from untraced runs and per-layer metrics
// from traced ones. See README.md for the workloads and metrics.
//
// One workload, in the form an external benchmark runner calls:
//
//	bash bench/run.sh --workload paper50-glr --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With no --workload every
// workload runs, interleaved over suiteRounds rounds plus one traced
// round, and --out writes the full result; --compare compares two such
// files against the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// metricDef names a metric, its unit and its better direction.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the simulator sees, measured on
// untraced runs; value extracts one from a run. Times are corrected for
// host speed (see hostspeed.go).
var endToEnd = []struct {
	metricDef
	value func(p plainRun) float64
}{
	{metricDef{"run_s", "s", "lower"}, func(p plainRun) float64 { return p.run * p.scale }},
	{metricDef{"setup_s", "s", "lower"}, func(p plainRun) float64 { return p.setup * p.scale }},
	{metricDef{"cpu_s", "s", "lower"}, func(p plainRun) float64 { return p.cpu * p.scale }},
	{metricDef{"peak_heap_mib", "MiB", "lower"}, func(p plainRun) float64 { return float64(p.peakHeap) / (1 << 20) }},
	{metricDef{"heap_allocs_m", "1e6", "lower"}, func(p plainRun) float64 { return float64(p.allocs) / 1e6 }},
	{metricDef{"alloc_mib", "MiB", "lower"}, func(p plainRun) float64 { return float64(p.bytes) / (1 << 20) }},
}

// perLayer are the metrics of one traced run. Self times ("_s" of a
// span) plus unattributed_s add up to trace.run_s.
var perLayer = []metricDef{
	{"trace.run_s", "s", "lower"},
	{"trace.setup_s", "s", "lower"},
	{"trace_overhead", "ratio", "lower"},
	{"host.speed", "ratio", "higher"},
	{"unattributed_s", "s", "lower"},
	{"unattributed_share", "ratio", "lower"},
	{"des.events", "count", "lower"},
	{"des.events_per_s", "1/s", "higher"},
	{"des.peak_pending", "count", "lower"},
	{"sim.beacon_s", "s", "lower"},
	{"sim.beacon_rx", "count", "lower"},
	{"mobility.reindex_s", "s", "lower"},
	{"mac.resolve_self_s", "s", "lower"},
	{"mac.transmissions", "count", "lower"},
	{"mac.tx_per_frame", "ratio", "lower"},
	{"mac.collisions", "count", "lower"},
	{"mac.busy_deferrals", "count", "lower"},
	{"mac.queue_drops", "count", "lower"},
	{"mac.unicast_failures", "count", "lower"},
	{"mac.fault_drops", "count", "lower"},
	{"core.on_frame_s", "s", "lower"},
	{"core.on_beacon_s", "s", "lower"},
	{"core.on_generated_s", "s", "lower"},
	{"core.greedy_forwards", "count", "higher"},
	{"core.face_forwards", "count", "lower"},
	{"core.face_failures", "count", "lower"},
	{"core.custody_returns", "count", "lower"},
	{"ldt.neighbors_s", "s", "lower"},
	{"ldt.queries", "count", "lower"},
	{"ldt.result_hit_ratio", "ratio", "higher"},
	{"ldt.tri_hit_ratio", "ratio", "higher"},
	{"ldt.tri_builds", "count", "lower"},
	{"ldt.spec_builds", "count", "lower"},
	{"ldt.spec_adopted_ratio", "ratio", "higher"},
	{"epidemic.anti_entropy_s", "s", "lower"},
	{"epidemic.on_frame_self_s", "s", "lower"},
	{"epidemic.on_beacon_s", "s", "lower"},
	{"epidemic.on_generated_s", "s", "lower"},
	{"metrics.storage_probe_s", "s", "lower"},
	{"fault.events", "count", "lower"},
	{"shard.workers", "count", "higher"},
	{"shard.cpu_per_wall", "ratio", "lower"},
	{"shard.rx_min", "count", "lower"},
	{"shard.beacon_min", "count", "lower"},
	{"shard.mobility_min", "count", "lower"},
	{"shard.diff_min", "count", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_cpu_s", "s", "lower"},
	{"runtime.allocs_per_event", "count", "lower"},
	{"runtime.alloc_bytes_per_event", "B", "lower"},
	{"sim.delivery_ratio", "ratio", "higher"},
	{"sim.latency_s", "s", "lower"},
	{"sim.avg_peak_storage", "count", "lower"},
}

// A one-workload run measures at least minWorlds worlds (minTracePairs
// untraced-traced pairs with --trace 1) even when that takes longer than
// --seconds, so every median has a middle. The suite runs suiteRounds
// timed rounds.
const (
	minWorlds     = 3
	minTracePairs = 1
	suiteRounds   = 5
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if errors.Is(err, errWorse) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload and print the result line (default: the whole suite)")
	seed := fs.Int64("seed", 1, "benchmark seed the worlds are drawn from (1 is the default, 2 is held out for claims)")
	seconds := fs.Int("seconds", 15, "measurement time of a one-workload run")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from traced runs instead of end-to-end metrics")
	out := fs.String("out", "", "write the full result JSON to this file")
	profile := fs.String("profile", "", "write a CPU profile of one traced world per workload into this directory")
	compare := fs.Bool("compare", false, "compare two result files against the bounds in BENCHMARK.json: --compare BASE NEW")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("--compare needs two result files, got %d", fs.NArg())
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	case fs.NArg() != 0:
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	case *seconds < 1:
		return fmt.Errorf("--seconds must be positive, got %d", *seconds)
	}
	if *profile != "" {
		if err := os.MkdirAll(*profile, 0o755); err != nil {
			return err
		}
	}
	if *name != "" {
		return runOne(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *profile, *out, stdout, stderr)
	}
	return runSuite(*seed, *profile, *out, stdout, stderr)
}

// runOne measures one workload for about the given time and prints the
// result line.
func runOne(name string, seed int64, budget time.Duration, trace bool, profile, out string, stdout, stderr io.Writer) error {
	wl, err := findWorkload(name)
	if err != nil {
		return err
	}
	s := newSession(wl, seed)
	s.use()
	s.warmup()
	minRuns := minWorlds
	if trace {
		minRuns = minTracePairs
	}
	start := time.Now()
	for i := 0; i < minRuns || time.Since(start) < budget; i++ {
		s.runPlain()
		if trace {
			s.runTraced(i, "")
		}
		fmt.Fprintf(stderr, "%s world %d: run %.3fs\n", name, i, s.plain[i].run)
	}
	if profile != "" {
		s.runTraced(0, profile)
	}
	s.topUpSetups()
	res := s.result()
	for _, p := range res.Problems {
		fmt.Fprintln(stderr, "FAILED:", p)
	}
	if out != "" {
		if err := writeResult(out, document{Seed: seed, Workloads: []workloadResult{res}}); err != nil {
			return err
		}
	}
	return printLine(stdout, res, trace)
}

// runSuite runs every workload: a warm-up of each, rounds of one world
// per workload in turn (so host drift hits all of them alike), then one
// traced round of untraced-traced pairs of a further world.
func runSuite(seed int64, profile, out string, stdout, stderr io.Writer) error {
	sessions := make([]*session, len(worlds))
	for i, wl := range worlds {
		sessions[i] = newSession(wl, seed)
		sessions[i].warmup()
	}
	for r := 0; r < suiteRounds; r++ {
		for _, s := range sessions {
			s.use()
			s.runPlain()
			fmt.Fprintf(stderr, "round %d %s: run %.3fs\n", r, s.wl.name, s.plain[r].run)
		}
	}
	for _, s := range sessions {
		s.use()
		s.runPlain()
		s.runTraced(suiteRounds, "")
		if profile != "" {
			s.runTraced(suiteRounds, profile)
		}
		s.topUpSetups()
	}
	checkTwins(sessions)
	doc := document{Host: describeHost(), Seed: seed, Rounds: suiteRounds}
	for _, s := range sessions {
		doc.Workloads = append(doc.Workloads, s.result())
	}
	printTable(stdout, doc)
	if out != "" {
		return writeResult(out, doc)
	}
	return nil
}

// checkTwins fails every world whose report differs from the same world
// of the workload's twin (the same worlds on another engine).
func checkTwins(sessions []*session) {
	byName := make(map[string]*session, len(sessions))
	for _, s := range sessions {
		byName[s.wl.name] = s
	}
	for _, s := range sessions {
		t := byName[s.wl.twin]
		if t == nil {
			continue
		}
		for i := range min(len(s.plain), len(t.plain)) {
			p, q := &s.plain[i], t.plain[i]
			if p.problem == "" && q.problem == "" && p.report != q.report {
				p.problem = "report differs from " + t.wl.name
			}
		}
	}
}

// document is the full result file.
type document struct {
	Host      *hostInfo        `json:"host,omitempty"`
	Seed      int64            `json:"seed"`
	Rounds    int              `json:"rounds,omitempty"`
	Workloads []workloadResult `json:"workloads"`
}

// workloadResult is everything measured for one workload.
type workloadResult struct {
	Name       string                   `json:"name"`
	Cores      int                      `json:"cores"`
	GOMAXPROCS int                      `json:"gomaxprocs"`
	Worlds     int                      `json:"worlds"`
	Runs       int                      `json:"runs"`
	FailedRuns int                      `json:"failed_runs"`
	Problems   []string                 `json:"problems,omitempty"`
	EndToEnd   map[string]metricSummary `json:"end_to_end"`
	PerLayer   map[string]layerValue    `json:"per_layer,omitempty"`
	Spans      []span                   `json:"spans,omitempty"`
}

// metricSummary is an end-to-end metric over a workload's worlds.
type metricSummary struct {
	Unit string `json:"unit"`
	summary
}

// layerValue is a per-layer metric of the median traced run.
type layerValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result digests the session.
func (s *session) result() workloadResult {
	runs, failed := s.counts()
	r := workloadResult{
		Name:       s.wl.name,
		Cores:      s.wl.cores,
		GOMAXPROCS: s.cores,
		Worlds:     len(s.plain),
		Runs:       runs,
		FailedRuns: failed,
		Problems:   s.problems(),
		EndToEnd:   make(map[string]metricSummary, len(endToEnd)),
	}
	for _, m := range endToEnd {
		var v []float64
		if m.Name == "setup_s" {
			v = s.setups
		} else {
			for _, p := range s.plain {
				if p.problem == "" {
					v = append(v, m.value(p))
				}
			}
		}
		r.EndToEnd[m.Name] = metricSummary{Unit: m.Unit, summary: summarize(v)}
	}
	if t, ok := s.medianTraced(); ok {
		r.Spans = t.spans
		r.PerLayer = make(map[string]layerValue, len(perLayer))
		for _, m := range perLayer {
			r.PerLayer[m.Name] = layerValue{Value: t.layers[m.Name], Unit: m.Unit}
		}
	}
	return r
}

// printLine prints the one-line result a benchmark runner reads:
// end-to-end medians, or per-layer values with trace on.
func printLine(w io.Writer, r workloadResult, trace bool) error {
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]layerValue `json:"metrics"`
	}{Attempted: r.Runs, Failed: r.FailedRuns, Metrics: map[string]layerValue{}}
	line.Correct = r.FailedRuns == 0 && r.Runs > 0
	if trace {
		if r.PerLayer == nil {
			line.Correct = false
		}
		for _, m := range perLayer {
			line.Metrics[m.Name] = layerValue{Value: r.PerLayer[m.Name].Value, Unit: m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			line.Metrics[m.Name] = layerValue{Value: r.EndToEnd[m.Name].Median, Unit: m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func writeResult(path string, doc document) error {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printTable prints a human-readable digest of a suite run.
func printTable(w io.Writer, doc document) {
	for _, r := range doc.Workloads {
		fmt.Fprintf(w, "%s (%d cores, %d worlds, %d/%d runs failed)\n", r.Name, r.GOMAXPROCS, r.Worlds, r.FailedRuns, r.Runs)
		for _, m := range endToEnd {
			s := r.EndToEnd[m.Name]
			fmt.Fprintf(w, "  %-15s %12.4f %-4s [%.4f, %.4f] n=%d\n", m.Name, s.Median, m.Unit, s.Q1, s.Q3, s.N)
		}
		var tops []string
		for _, sp := range r.Spans {
			if sp.Self > 0 && sp.Name != "setup" {
				tops = append(tops, fmt.Sprintf("%s %.3fs", sp.Name, sp.Self))
			}
		}
		sort.Strings(tops)
		if len(tops) > 0 {
			fmt.Fprintf(w, "  self: %s\n", strings.Join(tops, ", "))
		}
		for _, p := range r.Problems {
			fmt.Fprintf(w, "  FAILED: %s\n", p)
		}
	}
}
