// Command benchgate turns `go test -bench` output into a committed JSON
// baseline and gates CI on benchmark regressions.
//
// Usage:
//
//	go test -bench '...' -benchmem -count 5 -run '^$' ./... | tee bench.txt
//	benchgate -in bench.txt -write ci/bench_baseline.json        # refresh baseline
//	benchgate -in bench.txt -baseline ci/bench_baseline.json \
//	          -out BENCH_spanner.json -tolerance 0.15           # gate
//
// Parsing takes the MEDIAN of each metric across the -count repetitions
// of each benchmark, which is robust to scheduler noise. Three metrics
// are gated:
//
//   - ns/op, normalized by the BenchmarkCalibration probe (a fixed
//     CPU-bound workload): the gate compares (current ns/op ÷ current
//     calibration) vs (baseline ns/op ÷ baseline calibration), so a
//     slower or faster CI runner shifts every benchmark and the probe
//     together and cancels out, while a real code regression moves only
//     the affected benchmarks.
//   - B/op and allocs/op (from -benchmem), compared raw — allocation
//     behaviour is machine-independent — with the same fractional
//     tolerance plus a small absolute slack so near-zero baselines do
//     not trip on a single stray allocation.
//
// A benchmark fails when any gated metric exceeds its allowance.
// Benchmarks present in the baseline but missing from the run fail the
// gate; new benchmarks are reported and recorded but not gated.
// Baselines written before the memory metrics existed (no B/op fields)
// gate ns/op only.
//
// -skip-ns takes a regexp of benchmark names (without the Benchmark
// prefix) whose ns/op is informational only: wall-clock
// macro-benchmarks — like the parallel Runner sweeps, whose time
// depends on the host's core count in a way the single-threaded
// calibration probe cannot normalize — are recorded in the baseline
// for visibility but gate only on their (machine-independent) B/op and
// allocs/op. -skip-mem does the same for the memory metrics: benchmarks
// whose allocation profile legitimately varies with the host are
// recorded but not gated on B/op or allocs/op.
//
// A second, independent mode gates absolute memory ceilings instead of
// benchmark regressions:
//
//	glrexp -exp scale -sizes 10000 -memreport mem.json
//	benchgate -gate-mem-ceiling mem.json -mem-budget ci/mem_budget.json
//
// The budget file commits a peak-heap ceiling in bytes per giant-tier
// scenario; the gate fails when a measured peak exceeds its ceiling or
// a budgeted scenario is missing from the measurement. Peaks are
// sampled HeapAlloc (see experiments.GiantSweep), so ceilings should
// carry comfortable headroom over a healthy run — the gate exists to
// catch the state plane regressing back toward O(n²), not GC jitter.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// calibrationName marks the machine-speed probe; it is recorded but never
// gated.
const calibrationName = "Calibration"

// Absolute slack for the memory gates: regressions within these extra
// amounts are tolerated on top of the fractional tolerance, so
// zero-allocation baselines do not fail on noise like a one-off pool
// growth.
const (
	allocSlack = 1.0  // allocs/op
	bytesSlack = 64.0 // B/op
)

// Entry is one benchmark's digest (medians across repetitions).
type Entry struct {
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	Samples     int      `json:"samples"`
}

// File is the JSON schema shared by the baseline and the emitted report.
type File struct {
	Note       string           `json:"note,omitempty"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

var (
	benchLine  = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+)\s+ns/op`)
	bytesField = regexp.MustCompile(`([0-9.]+)\s+B/op`)
	allocField = regexp.MustCompile(`([0-9.]+)\s+allocs/op`)
)

func main() {
	var (
		in        = flag.String("in", "", "bench output file (default stdin)")
		write     = flag.String("write", "", "write/refresh the baseline at this path and exit")
		baseline  = flag.String("baseline", "", "baseline JSON to gate against")
		out       = flag.String("out", "", "write the current digest (with verdicts in the note) to this path")
		tolerance = flag.Float64("tolerance", 0.15, "allowed fractional regression per metric (ns/op normalized; B/op and allocs/op raw)")
		skipNs    = flag.String("skip-ns", "", "regexp of benchmark names (sans Benchmark prefix) whose ns/op is informational only; memory metrics still gate")
		skipMem   = flag.String("skip-mem", "", "regexp of benchmark names (sans Benchmark prefix) whose B/op and allocs/op are informational only (host-dependent allocation profiles)")
		gateMem   = flag.String("gate-mem-ceiling", "", "measured memory report (from `glrexp -memreport`); gate its peaks against -mem-budget and exit")
		memBudget = flag.String("mem-budget", "ci/mem_budget.json", "committed per-scenario peak-heap ceilings (bytes) for -gate-mem-ceiling")
	)
	flag.Parse()

	if *gateMem != "" {
		failures, report, err := gateMemCeiling(*gateMem, *memBudget)
		if err != nil {
			fatal(err)
		}
		fmt.Print(report)
		if len(failures) > 0 {
			fmt.Printf("benchgate: FAIL — %d scenario(s) over their memory ceiling\n", len(failures))
			os.Exit(1)
		}
		fmt.Println("benchgate: OK")
		return
	}

	var skipNsRe, skipMemRe *regexp.Regexp
	if *skipNs != "" {
		var err error
		if skipNsRe, err = regexp.Compile(*skipNs); err != nil {
			fatal(fmt.Errorf("bad -skip-ns regexp: %w", err))
		}
	}
	if *skipMem != "" {
		var err error
		if skipMemRe, err = regexp.Compile(*skipMem); err != nil {
			fatal(fmt.Errorf("bad -skip-mem regexp: %w", err))
		}
	}

	cur, err := parse(*in)
	if err != nil {
		fatal(err)
	}
	if len(cur.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}

	if *write != "" {
		cur.Note = "median ns/op, B/op, allocs/op across -count repetitions; regenerate with `make bench-baseline`"
		if err := emit(*write, cur); err != nil {
			fatal(err)
		}
		fmt.Printf("benchgate: wrote baseline %s (%d benchmarks)\n", *write, len(cur.Benchmarks))
		return
	}

	if *baseline == "" {
		fatal(fmt.Errorf("need -baseline (or -write to create one)"))
	}
	base, err := load(*baseline)
	if err != nil {
		fatal(err)
	}
	failures, report := compare(base, cur, *tolerance, skipNsRe, skipMemRe)
	cur.Note = report
	if *out != "" {
		if err := emit(*out, cur); err != nil {
			fatal(err)
		}
	}
	fmt.Print(report)
	if len(failures) > 0 {
		fmt.Printf("benchgate: FAIL — %d regression(s) beyond %.0f%%\n", len(failures), *tolerance*100)
		os.Exit(1)
	}
	fmt.Println("benchgate: OK")
}

// parse reads bench output and digests it to per-benchmark medians.
func parse(path string) (File, error) {
	var r io.Reader = os.Stdin
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return File{}, err
		}
		defer f.Close()
		r = f
	}
	type samples struct {
		ns, bytes, allocs []float64
	}
	byName := map[string]*samples{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		s := byName[name]
		if s == nil {
			s = &samples{}
			byName[name] = s
		}
		s.ns = append(s.ns, ns)
		if bm := bytesField.FindStringSubmatch(line); bm != nil {
			if v, err := strconv.ParseFloat(bm[1], 64); err == nil {
				s.bytes = append(s.bytes, v)
			}
		}
		if am := allocField.FindStringSubmatch(line); am != nil {
			if v, err := strconv.ParseFloat(am[1], 64); err == nil {
				s.allocs = append(s.allocs, v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return File{}, err
	}
	out := File{Benchmarks: map[string]Entry{}}
	for name, s := range byName {
		e := Entry{NsPerOp: median(s.ns), Samples: len(s.ns)}
		if len(s.bytes) > 0 {
			v := median(s.bytes)
			e.BytesPerOp = &v
		}
		if len(s.allocs) > 0 {
			v := median(s.allocs)
			e.AllocsPerOp = &v
		}
		out.Benchmarks[name] = e
	}
	return out, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// memVerdict gates one raw memory metric (B/op or allocs/op): a failure
// needs the current median to exceed the baseline by both the fractional
// tolerance and the absolute slack. Metrics absent on either side
// (pre-memory baseline, or a run without -benchmem) are not gated.
func memVerdict(base, cur *float64, tolerance, slack float64) (regressed bool, detail string) {
	if base == nil || cur == nil {
		return false, ""
	}
	allowed := *base*(1+tolerance) + slack
	if *cur > allowed {
		return true, fmt.Sprintf("%.0f -> %.0f", *base, *cur)
	}
	return false, ""
}

// compare gates cur against base and renders a human-readable report.
// Benchmarks matching skipNs gate on memory metrics only; benchmarks
// matching skipMem gate on ns/op only (both ⇒ informational).
func compare(base, cur File, tolerance float64, skipNs, skipMem *regexp.Regexp) (failures []string, report string) {
	scale := 1.0
	bc, okB := base.Benchmarks[calibrationName]
	cc, okC := cur.Benchmarks[calibrationName]
	var b strings.Builder
	if okB && okC && bc.NsPerOp > 0 && cc.NsPerOp > 0 {
		scale = cc.NsPerOp / bc.NsPerOp
		fmt.Fprintf(&b, "calibration: runner is %.2fx the baseline machine; comparing normalized ns/op\n", scale)
	} else {
		fmt.Fprintf(&b, "calibration probe missing on one side; comparing raw ns/op\n")
	}

	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		if name != calibrationName {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		be := base.Benchmarks[name]
		ce, ok := cur.Benchmarks[name]
		if !ok {
			failures = append(failures, name)
			fmt.Fprintf(&b, "  MISSING %-28s baseline %.0f ns/op, absent from this run\n", name, be.NsPerOp)
			continue
		}
		ratio := (ce.NsPerOp / scale) / be.NsPerOp
		var problems []string
		nsInformational := skipNs != nil && skipNs.MatchString(name)
		memInformational := skipMem != nil && skipMem.MatchString(name)
		if ratio > 1+tolerance && !nsInformational {
			problems = append(problems, "ns/op")
		}
		if !memInformational {
			if bad, detail := memVerdict(be.BytesPerOp, ce.BytesPerOp, tolerance, bytesSlack); bad {
				problems = append(problems, "B/op "+detail)
			}
			if bad, detail := memVerdict(be.AllocsPerOp, ce.AllocsPerOp, tolerance, allocSlack); bad {
				problems = append(problems, "allocs/op "+detail)
			}
		}
		verdict := "ok"
		if len(problems) > 0 {
			verdict = "REGRESSION"
			failures = append(failures, name)
		}
		mem := ""
		if ce.AllocsPerOp != nil {
			mem = fmt.Sprintf(", %.0f allocs/op", *ce.AllocsPerOp)
		}
		note := ""
		if len(problems) > 0 {
			note = " [" + strings.Join(problems, "; ") + "]"
		}
		if nsInformational {
			note += " [ns/op informational]"
		}
		if memInformational {
			note += " [mem informational]"
		}
		fmt.Fprintf(&b, "  %-10s %-28s %9.0f -> %9.0f ns/op (normalized %+.1f%%%s)%s\n",
			verdict, name, be.NsPerOp, ce.NsPerOp, (ratio-1)*100, mem, note)
	}
	for name := range cur.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok && name != calibrationName {
			fmt.Fprintf(&b, "  new        %-28s %9.0f ns/op (not gated; refresh the baseline to track)\n",
				name, cur.Benchmarks[name].NsPerOp)
		}
	}
	return failures, b.String()
}

// memMeasurement mirrors experiments.MemPoint: one scenario's measured
// peak from a `glrexp -memreport` file.
type memMeasurement struct {
	N             int    `json:"n"`
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	WallMs        int64  `json:"wall_ms"`
}

// memBudgetFile is the committed ceiling schema (ci/mem_budget.json).
type memBudgetFile struct {
	Note     string            `json:"note,omitempty"`
	Ceilings map[string]uint64 `json:"ceilings"`
}

// gateMemCeiling compares a measured memory report against committed
// ceilings: every budgeted scenario must be present and at or under its
// ceiling; unbudgeted measurements are reported but not gated.
func gateMemCeiling(measuredPath, budgetPath string) (failures []string, report string, err error) {
	data, err := os.ReadFile(measuredPath)
	if err != nil {
		return nil, "", err
	}
	var measured map[string]memMeasurement
	if err := json.Unmarshal(data, &measured); err != nil {
		return nil, "", fmt.Errorf("%s: %w", measuredPath, err)
	}
	data, err = os.ReadFile(budgetPath)
	if err != nil {
		return nil, "", err
	}
	var budget memBudgetFile
	if err := json.Unmarshal(data, &budget); err != nil {
		return nil, "", fmt.Errorf("%s: %w", budgetPath, err)
	}
	if len(budget.Ceilings) == 0 {
		return nil, "", fmt.Errorf("%s: no ceilings", budgetPath)
	}

	names := make([]string, 0, len(budget.Ceilings))
	for name := range budget.Ceilings {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		ceiling := budget.Ceilings[name]
		m, ok := measured[name]
		if !ok {
			failures = append(failures, name)
			fmt.Fprintf(&b, "  MISSING    %-14s ceiling %s, absent from %s\n", name, fmtMiB(ceiling), measuredPath)
			continue
		}
		verdict := "ok"
		if m.PeakHeapBytes > ceiling {
			verdict = "OVER"
			failures = append(failures, name)
		}
		fmt.Fprintf(&b, "  %-10s %-14s peak %s of %s ceiling (%.0f%%), wall %d ms\n",
			verdict, name, fmtMiB(m.PeakHeapBytes), fmtMiB(ceiling),
			100*float64(m.PeakHeapBytes)/float64(ceiling), m.WallMs)
	}
	for name, m := range measured {
		if _, ok := budget.Ceilings[name]; !ok {
			fmt.Fprintf(&b, "  unbudgeted %-14s peak %s (not gated; add to the budget to track)\n",
				name, fmtMiB(m.PeakHeapBytes))
		}
	}
	return failures, b.String(), nil
}

// fmtMiB renders a byte count in MiB.
func fmtMiB(b uint64) string { return fmt.Sprintf("%.0f MiB", float64(b)/(1<<20)) }

func load(path string) (File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return File{}, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func emit(path string, f File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
