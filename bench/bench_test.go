package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"glr/internal/fault"
	"glr/internal/metrics"
	"glr/internal/sim"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(data, n=4).
	cases := []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{5, 7}, 4.5, 6, 7.5},
		{[]float64{4}, 4, 4, 4},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.data)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	s := summarize([]float64{10, 1, 4, 3, 2})
	if s.Median != 3 || s.N != 5 || s.Samples[0] != 1 || s.Samples[4] != 10 {
		t.Errorf("summarize = %+v, want sorted samples with median 3", s)
	}
	if got := summarize([]float64{8, 10, 12}).spread(); math.Abs(got-4.0/10) > 1e-12 {
		t.Errorf("spread = %v, want 0.4", got)
	}
}

func TestVerdict(t *testing.T) {
	tight := func(m float64) summary { return summarize([]float64{m * 0.99, m, m * 1.01}) }
	wide := func(m float64) summary { return summarize([]float64{m * 0.7, m, m * 1.3}) }
	cases := []struct {
		name       string
		base, next summary
		lower      bool
		want       string
	}{
		{"slower beyond bound", tight(1), tight(1.2), true, worse},
		{"slower within bound", tight(1), tight(1.05), true, unchanged},
		{"faster beyond bound", tight(1), tight(0.8), true, better},
		{"higher is better, dropped", tight(1), tight(0.8), false, worse},
		{"higher is better, rose", tight(1), tight(1.2), false, better},
		{"noisy and overlapping", wide(1), wide(1.15), true, unresolved},
		{"noisy but separated", wide(1), wide(2), true, worse},
		{"no runs", tight(1), summary{}, true, unresolved},
	}
	for _, c := range cases {
		if got := verdict(c.base, c.next, c.lower, 0.1); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareDocs checks that the comparison gate fails a new result on a
// slower metric, on a larger share of failed runs (a workload whose runs
// all fail has no medians, so only the failure count shows it), and on a
// missing workload.
func TestCompareDocs(t *testing.T) {
	var sp spec
	if err := json.Unmarshal([]byte(`{"end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1}]}`), &sp); err != nil {
		t.Fatal(err)
	}
	doc := func(runS float64, failed int, names ...string) document {
		var d document
		for _, name := range names {
			r := workloadResult{Name: name, Runs: 8, FailedRuns: failed, EndToEnd: map[string]metricSummary{}}
			if failed < r.Runs {
				r.EndToEnd["run_s"] = metricSummary{Unit: "s", summary: summarize([]float64{runS * 0.99, runS, runS * 1.01})}
			}
			d.Workloads = append(d.Workloads, r)
		}
		return d
	}
	base := doc(1, 0, "a", "b")
	cases := []struct {
		name  string
		next  document
		worse bool
	}{
		{"same", doc(1, 0, "a", "b"), false},
		{"faster", doc(0.5, 0, "a", "b"), false},
		{"extra workload", doc(1, 0, "a", "b", "c"), false},
		{"slower", doc(1.5, 0, "a", "b"), true},
		{"a failed run", doc(1, 1, "a", "b"), true},
		{"every run failed", doc(1, 8, "a", "b"), true},
		{"workload missing", doc(1, 0, "a"), true},
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := compareDocs(sp, base, c.next, &out)
		if err != nil && !errors.Is(err, errWorse) {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := err != nil; got != c.worse {
			t.Errorf("%s: worse = %v, want %v\n%s", c.name, got, c.worse, out.String())
		}
	}
}

func TestBuildTreeSelfTimes(t *testing.T) {
	spans, err := buildTree([]span{
		{Name: "setup", Total: 0.5},
		{Name: "run", Total: 10},
		{Name: "mac.resolve", Parent: "run", Total: 6},
		{Name: "core.on_frame", Parent: "mac.resolve", Total: 2},
		{Name: "core.on_beacon", Parent: "mac.resolve", Total: 1},
		{Name: "ldt.neighbors", Parent: "run", Total: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	self := map[string]float64{}
	sum := 0.0
	for _, s := range spans {
		self[s.Name] = s.Self
		if s.Name != "setup" {
			sum += s.Self
		}
	}
	want := map[string]float64{"setup": 0.5, "run": 0, "mac.resolve": 3, "core.on_frame": 2, "core.on_beacon": 1, "ldt.neighbors": 3, unattributedSpan: 1}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %v, want %v", name, self[name], w)
		}
	}
	if sum != 10 {
		t.Errorf("self times sum to %v, want the run's 10", sum)
	}
	if _, err := buildTree([]span{
		{Name: "run", Total: 1},
		{Name: "mac.resolve", Parent: "run", Total: 0.8},
		{Name: "ldt.neighbors", Parent: "run", Total: 0.3},
	}); err == nil {
		t.Error("children covering more than their parent were accepted")
	}
}

// TestWrappedFactoryKeepsReport runs a churn world with the plain and the
// tracer-wrapped protocol factory: timing the protocol from outside must
// not change what it does, which needs the wrapper to forward restarts.
func TestWrappedFactoryKeepsReport(t *testing.T) {
	for _, wl := range []string{"paper50-glr", "paper50-epidemic"} {
		w, err := findWorkload(wl)
		if err != nil {
			t.Fatal(err)
		}
		sc := shortened(w.world(3), 0.2)
		sc.Faults = []fault.Spec{{Kind: fault.Churn, Rate: 0.01, Duration: 20}}
		run := func(wrap bool) (metrics.Report, *tracer) {
			f, _, err := w.factory(wrap)
			if err != nil {
				t.Fatal(err)
			}
			tr := &tracer{}
			if wrap {
				f = tr.wrap(f)
			}
			world, err := sim.NewWorld(sc, f)
			if err != nil {
				t.Fatal(err)
			}
			var crashes int
			world.SetFaultHook(func(e fault.Event) {
				if !e.Restored {
					crashes++
				}
			})
			rep := world.Run()
			if crashes == 0 {
				t.Fatalf("%s: no node crashed; the test needs churn", wl)
			}
			return rep, tr
		}
		plain, _ := run(false)
		traced, tr := run(true)
		if plain != traced {
			t.Errorf("%s: wrapped report %+v differs from plain %+v", wl, traced, plain)
		}
		if tr.onBeacon.n == 0 || tr.storage.n == 0 {
			t.Errorf("%s: the wrapper saw no callbacks", wl)
		}
	}
}

// TestSmokeAllWorkloads runs every workload at 2% of its horizon through
// the whole measurement path: warm-up on both engines, a timed world, a
// traced world and the checks.
func TestSmokeAllWorkloads(t *testing.T) {
	var sessions []*session
	for _, wl := range worlds {
		full := wl.world
		wl.world = func(seed int64) sim.Scenario { return shortened(full(seed), 0.02) }
		s := newSession(wl, 1)
		s.use()
		s.warmup()
		s.runPlain()
		s.runTraced(0, "")
		s.topUpSetups()
		sessions = append(sessions, s)
	}
	checkTwins(sessions)
	for _, s := range sessions {
		r := s.result()
		if r.FailedRuns != 0 || r.Runs != 4 {
			t.Errorf("%s: %d of %d runs failed: %v", r.Name, r.FailedRuns, r.Runs, r.Problems)
			continue
		}
		if len(s.setups) < minSetups {
			t.Errorf("%s: %d set-up samples", r.Name, len(s.setups))
		}
		run := r.PerLayer["trace.run_s"].Value
		sum := 0.0
		for _, sp := range r.Spans {
			if sp.Self < 0 {
				t.Errorf("%s: span %s has negative self time", r.Name, sp.Name)
			}
			if sp.Name != "setup" {
				sum += sp.Self
			}
		}
		if math.Abs(sum-run) > 1e-9*run {
			t.Errorf("%s: self times sum to %v, traced run took %v", r.Name, sum, run)
		}
		var line bytes.Buffer
		for _, trace := range []bool{false, true} {
			line.Reset()
			if err := printLine(&line, r, trace); err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct   bool
				Attempted int
				Metrics   map[string]layerValue
			}
			if err := json.Unmarshal(line.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			want := len(endToEnd)
			if trace {
				want = len(perLayer)
			}
			if !got.Correct || got.Attempted != 4 || len(got.Metrics) != want {
				t.Errorf("%s trace=%v: line %s", r.Name, trace, line.String())
			}
		}
	}
}

// TestSpecMatchesProgram keeps BENCHMARK.json and the program in step.
func TestSpecMatchesProgram(t *testing.T) {
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := readJSON("../"+specFile, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(worlds) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(worlds))
	}
	for i, w := range b.Workloads {
		if w.Name != worlds[i].name || w.Why != worlds[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, worlds[i].name, worlds[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m != endToEnd[i].metricDef {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, m, endToEnd[i].metricDef)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, m, perLayer[i])
		}
	}
}
