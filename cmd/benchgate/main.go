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
// allocs/op.
//
// Absolute peak-heap ceilings are not gated here: `make mem-gate` checks
// the peak heap of the benchmark's giant10k-glr workload (bench/) against
// ci/mem_budget.json.
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
	)
	flag.Parse()

	var skipNsRe *regexp.Regexp
	if *skipNs != "" {
		var err error
		if skipNsRe, err = regexp.Compile(*skipNs); err != nil {
			fatal(fmt.Errorf("bad -skip-ns regexp: %w", err))
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
	failures, report := compare(base, cur, *tolerance, skipNsRe)
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
// Benchmarks matching skipNs gate on memory metrics only.
func compare(base, cur File, tolerance float64, skipNs *regexp.Regexp) (failures []string, report string) {
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
		if ratio > 1+tolerance && !nsInformational {
			problems = append(problems, "ns/op")
		}
		if bad, detail := memVerdict(be.BytesPerOp, ce.BytesPerOp, tolerance, bytesSlack); bad {
			problems = append(problems, "B/op "+detail)
		}
		if bad, detail := memVerdict(be.AllocsPerOp, ce.AllocsPerOp, tolerance, allocSlack); bad {
			problems = append(problems, "allocs/op "+detail)
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
