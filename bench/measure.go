package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"glr/internal/des"
	"glr/internal/fault"
	"glr/internal/mac"
	"glr/internal/metrics"
	"glr/internal/sim"
)

// plainRun is the measurement of one untraced world.
type plainRun struct {
	setup, run, cpu float64 // wall seconds in sim.NewWorld and World.Run; process CPU seconds over both
	peakHeap        uint64  // bytes, the largest sampled heap
	allocs, bytes   uint64  // heap objects and bytes allocated over setup and run
	events          uint64
	scale           float64 // host-speed correction for the times (see hostspeed.go)
	report          metrics.Report
	mac             mac.Stats
	problem         string // why the run failed; empty when it passed
}

// tracedRun is one traced world: the span tree and the per-layer numbers.
type tracedRun struct {
	world   int
	run     float64
	scale   float64
	spans   []span
	layers  map[string]float64
	problem string
}

// session measures one workload at one benchmark seed. Its runs draw
// worlds 0, 1, 2, ... from the seed (see worldSeed).
type session struct {
	wl    workload
	seed  int64
	cores int

	warm   []plainRun
	plain  []plainRun // by world index
	traced []tracedRun
	setups []float64 // corrected NewWorld seconds, from runs and set-up-only samples
}

// Set-up sampling: at least minSetups samples, more while they take less
// than setupBudget in total, so sub-millisecond set-ups still get a
// steady median.
const (
	minSetups   = 5
	maxSetups   = 200
	setupBudget = 250 * time.Millisecond
)

func newSession(wl workload, seed int64) *session {
	return &session{wl: wl, seed: seed, cores: min(wl.cores, runtime.NumCPU())}
}

// use gives the process the workload's core budget, which is what picks
// the engine: one core runs serially, more run the sharded engine.
func (s *session) use() { runtime.GOMAXPROCS(s.cores) }

func (s *session) scenario(i int) sim.Scenario { return s.wl.world(worldSeed(s.seed, i)) }

// warmup runs world 0 at a tenth of its horizon twice, untimed: on the
// workload's own engine and on the other one (serial for a multi-core
// workload, sharded for a one-core workload when the host has a second
// core). It settles fork-threshold calibration and heap growth before
// anything is timed, and the two reports must be identical.
func (s *session) warmup() {
	sc := shortened(s.scenario(0), 0.1)
	other := 1
	if s.cores == 1 {
		other = min(2, runtime.NumCPU())
	}
	for _, cores := range []int{s.cores, other} {
		runtime.GOMAXPROCS(cores)
		r := s.measurePlain(sc)
		if r.problem == "" && len(s.warm) > 0 && r.report != s.warm[0].report {
			r.problem = fmt.Sprintf("warm-up report on %d cores differs from %d cores", cores, s.cores)
		}
		s.warm = append(s.warm, r)
	}
	s.use()
}

// runPlain measures the next world untraced.
func (s *session) runPlain() {
	r := s.measurePlain(s.scenario(len(s.plain)))
	s.plain = append(s.plain, r)
	if r.problem == "" {
		s.setups = append(s.setups, r.setup*r.scale)
	}
}

// runTraced runs world i traced; its report must equal the untraced
// run of the same world.
func (s *session) runTraced(i int, profile string) {
	t := s.measureTraced(i, profile)
	if t.problem == "" {
		p := s.plain[i]
		if p.problem != "" {
			t.problem = "untraced twin failed"
		} else {
			t.layers["trace_overhead"] = (t.run*t.scale)/(p.run*p.scale) - 1
			t.layers["host.speed"] = p.scale
			t.layers["shard.cpu_per_wall"] = p.cpu / p.run
			t.layers["runtime.allocs_per_event"] = float64(p.allocs) / float64(p.events)
			t.layers["runtime.alloc_bytes_per_event"] = float64(p.bytes) / float64(p.events)
		}
	}
	// A profiled run stays out of the trace statistics, but a failure
	// still counts.
	if profile == "" || t.problem != "" {
		s.traced = append(s.traced, t)
	}
}

// topUpSetups adds set-up-only samples of the worlds already run.
func (s *session) topUpSetups() {
	f, _, err := s.wl.factory(false)
	if err != nil || len(s.plain) == 0 {
		return
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var raw []float64
	var spent time.Duration
	k0 := kernelTime()
	for k := 0; len(s.setups)+len(raw) < minSetups || (spent < setupBudget && len(s.setups)+len(raw) < maxSetups); k++ {
		sc := s.scenario(k % len(s.plain))
		runtime.GC()
		start := time.Now()
		w, err := sim.NewWorld(sc, f)
		d := time.Since(start)
		if err != nil {
			return
		}
		// A cancelled run returns at once and releases the shard pool.
		_, _ = w.RunContext(cancelled)
		raw = append(raw, d.Seconds())
		spent += d
	}
	sc := scale(k0, kernelTime())
	for _, d := range raw {
		s.setups = append(s.setups, d*sc)
	}
}

// counts returns the number of runs and of failed runs.
func (s *session) counts() (attempted, failed int) {
	return len(s.warm) + len(s.plain) + len(s.traced), len(s.problems())
}

// problems lists why runs failed, one entry per failed run.
func (s *session) problems() []string {
	var out []string
	for i, r := range s.warm {
		if r.problem != "" {
			out = append(out, fmt.Sprintf("warm-up %d: %s", i, r.problem))
		}
	}
	for i, r := range s.plain {
		if r.problem != "" {
			out = append(out, fmt.Sprintf("world %d: %s", i, r.problem))
		}
	}
	for _, t := range s.traced {
		if t.problem != "" {
			out = append(out, fmt.Sprintf("traced world %d: %s", t.world, t.problem))
		}
	}
	return out
}

// measurePlain runs one world with tracing off and measures it.
func (s *session) measurePlain(sc sim.Scenario) plainRun {
	f, _, err := s.wl.factory(false)
	if err != nil {
		return plainRun{problem: err.Error()}
	}
	k0 := kernelTime()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	stopHeap := sampleHeap()
	t0 := time.Now()
	w, err := sim.NewWorld(sc, f)
	t1 := time.Now()
	if err != nil {
		stopHeap()
		return plainRun{problem: err.Error()}
	}
	rep := w.Run()
	t2 := time.Now()
	peak := stopHeap()
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	k1 := kernelTime()
	r := plainRun{
		setup:    t1.Sub(t0).Seconds(),
		run:      t2.Sub(t1).Seconds(),
		cpu:      cpu,
		peakHeap: peak,
		allocs:   m1.Mallocs - m0.Mallocs,
		bytes:    m1.TotalAlloc - m0.TotalAlloc,
		events:   w.Scheduler().Processed(),
		scale:    scale(k0, k1),
		report:   rep,
		mac:      w.Medium().Stats(),
	}
	if err := checkReport(sc, rep, r.mac); err != nil {
		r.problem = err.Error()
	}
	return r
}

// measureTraced runs world i with every layer timed from outside. When a
// profile directory is given it also writes a CPU profile covering the
// world's set-up and run.
func (s *session) measureTraced(i int, profile string) tracedRun {
	t := tracedRun{world: i}
	sc := s.scenario(i)
	f, maint, err := s.wl.factory(true)
	if err != nil {
		t.problem = err.Error()
		return t
	}
	if profile != "" {
		stop, err := startProfile(filepath.Join(profile, s.wl.name+".cpu.pprof"))
		if err != nil {
			t.problem = err.Error()
			return t
		}
		defer func() {
			if err := stop(); err != nil && t.problem == "" {
				t.problem = err.Error()
			}
		}()
	}
	tr := &tracer{}
	k0 := kernelTime()
	runtime.GC()
	rt0 := readRuntime()
	t0 := time.Now()
	w, err := sim.NewWorld(sc, tr.wrap(f))
	setup := time.Since(t0)
	if err != nil {
		t.problem = err.Error()
		return t
	}
	w.EnablePhaseProfile()
	var faults uint64
	w.SetFaultHook(func(fault.Event) { faults++ })
	// A one-second probe on the scheduler reads the pending-event count.
	// World.AddSampler is not used: its samples poll every node's storage,
	// which the storage-probe span would then count.
	var probes uint64
	peakPending := 0
	des.NewTicker(w.Scheduler(), 1, 0, func() {
		probes++
		peakPending = max(peakPending, w.Scheduler().Pending())
	})
	workers := 1
	if p := w.Node(0).ShardPool(); p != nil {
		workers = p.Workers()
	}
	thr := w.ForkThresholds()

	t1 := time.Now()
	rep := w.Run()
	run := time.Since(t1)
	rt1 := readRuntime()
	t.run = run.Seconds()
	t.scale = scale(k0, kernelTime())

	if p := s.plain[i]; p.problem == "" && rep != p.report {
		t.problem = "traced report differs from the untraced one"
		return t
	}

	ph := w.PhaseProfile()
	pre := "core"
	if s.wl.proto == "epidemic" {
		pre = "epidemic"
	}
	spans := []span{
		{Name: "setup", Count: 1, Total: setup.Seconds()},
		{Name: "run", Count: 1, Total: run.Seconds()},
		{Name: "sim.beacon", Parent: "run", Total: ph.Beacon.Seconds()},
		{Name: "mobility.reindex", Parent: "run", Total: ph.Mobility.Seconds()},
		{Name: "mac.resolve", Parent: "run", Total: ph.Rx.Seconds()},
		{Name: pre + ".on_frame", Parent: "mac.resolve", Count: tr.onFrame.n, Total: tr.onFrame.d.Seconds()},
		{Name: pre + ".on_beacon", Parent: "mac.resolve", Count: tr.onBeacon.n, Total: tr.onBeacon.d.Seconds()},
		{Name: pre + ".on_generated", Parent: "run", Count: tr.onGenerated.n, Total: tr.onGenerated.d.Seconds()},
		{Name: "metrics.storage_probe", Parent: "run", Count: tr.storage.n, Total: tr.storage.d.Seconds()},
	}
	if maint != nil {
		st := maint.Stats()
		spans = append(spans, span{Name: "ldt.neighbors", Parent: "run", Count: st.Queries, Total: st.BuildTime.Seconds()})
	}
	if s.wl.proto == "epidemic" {
		// Anti-entropy diffs run only inside epidemic's summary handler.
		spans = append(spans, span{Name: "epidemic.anti_entropy", Parent: "epidemic.on_frame", Total: ph.AntiEntropy.Seconds()})
	}
	if t.spans, err = buildTree(spans); err != nil {
		t.problem = err.Error()
		return t
	}
	self := make(map[string]float64, len(t.spans))
	for _, sp := range t.spans {
		self[sp.Name] = sp.Self
	}

	events := float64(w.Scheduler().Processed() - probes)
	ms := w.Medium().Stats()
	cs := tr.coreStats()
	l := map[string]float64{
		"trace.run_s":              t.run,
		"trace.setup_s":            setup.Seconds(),
		"unattributed_s":           self[unattributedSpan],
		"unattributed_share":       self[unattributedSpan] / t.run,
		"des.events":               events,
		"des.events_per_s":         events / t.run,
		"des.peak_pending":         float64(peakPending),
		"sim.beacon_s":             self["sim.beacon"],
		"sim.beacon_rx":            float64(tr.onBeacon.n),
		"mobility.reindex_s":       self["mobility.reindex"],
		"mac.resolve_self_s":       self["mac.resolve"],
		"mac.transmissions":        float64(ms.Transmissions),
		"mac.tx_per_frame":         ratio(ms.Transmissions, ms.FramesQueued),
		"mac.collisions":           float64(ms.Collisions),
		"mac.busy_deferrals":       float64(ms.BusyDeferrals),
		"mac.queue_drops":          float64(ms.QueueDrops),
		"mac.unicast_failures":     float64(ms.UnicastFailures),
		"mac.fault_drops":          float64(ms.FaultDrops),
		"core.on_frame_s":          self["core.on_frame"],
		"core.on_beacon_s":         self["core.on_beacon"],
		"core.on_generated_s":      self["core.on_generated"],
		"core.greedy_forwards":     float64(cs.GreedyForwards),
		"core.face_forwards":       float64(cs.FaceForwards),
		"core.face_failures":       float64(cs.FaceFailures),
		"core.custody_returns":     float64(cs.CustodyReturns),
		"ldt.neighbors_s":          self["ldt.neighbors"],
		"epidemic.anti_entropy_s":  self["epidemic.anti_entropy"],
		"epidemic.on_frame_self_s": self["epidemic.on_frame"],
		"epidemic.on_beacon_s":     self["epidemic.on_beacon"],
		"epidemic.on_generated_s":  self["epidemic.on_generated"],
		"metrics.storage_probe_s":  self["metrics.storage_probe"],
		"fault.events":             float64(faults),
		"shard.workers":            float64(workers),
		"shard.rx_min":             threshold(thr.RxMin),
		"shard.beacon_min":         threshold(thr.BeaconMin),
		"shard.mobility_min":       threshold(thr.MobilityMin),
		"shard.diff_min":           threshold(thr.DiffMin),
		"runtime.gc_cycles":        rt1.gcCycles - rt0.gcCycles,
		"runtime.gc_cpu_s":         rt1.gcCPU - rt0.gcCPU,
		"sim.delivery_ratio":       rep.DeliveryRatio,
		"sim.latency_s":            rep.AvgLatency,
		"sim.avg_peak_storage":     rep.AvgPeakStorage,
	}
	if maint != nil {
		st := maint.Stats()
		l["ldt.queries"] = float64(st.Queries)
		l["ldt.result_hit_ratio"] = ratio(st.ResultHits, st.Queries)
		l["ldt.tri_hit_ratio"] = st.TriHitRate()
		l["ldt.tri_builds"] = float64(st.TriBuilds)
		l["ldt.spec_builds"] = float64(st.SpecBuilds)
		l["ldt.spec_adopted_ratio"] = ratio(st.SpecAdopted, st.SpecBuilds)
	}
	t.layers = l
	return t
}

// startProfile starts a CPU profile written to path; stop ends it and
// closes the file.
func startProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		return nil
	}, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// threshold reports a fork threshold, with -1 for "never forks".
func threshold(v int) float64 {
	if v == math.MaxInt {
		return -1
	}
	return float64(v)
}

// checkReport rejects a report that breaks the run's bookkeeping: every
// scheduled message generated, deliveries within range, consistent
// means, beacons sent, and fault drops exactly when faults are
// injected.
func checkReport(sc sim.Scenario, r metrics.Report, st mac.Stats) error {
	switch {
	case r.Generated != len(sc.Traffic):
		return fmt.Errorf("generated %d of %d scheduled messages", r.Generated, len(sc.Traffic))
	case r.Delivered < 0 || r.Delivered > r.Generated:
		return fmt.Errorf("delivered %d of %d messages", r.Delivered, r.Generated)
	case r.Generated > 0 && r.DeliveryRatio != float64(r.Delivered)/float64(r.Generated):
		return fmt.Errorf("delivery ratio %v is not %d/%d", r.DeliveryRatio, r.Delivered, r.Generated)
	case math.IsNaN(r.AvgLatency) || r.AvgLatency < 0 || (r.Delivered > 0) != (r.AvgLatency > 0):
		return fmt.Errorf("mean latency %v with %d deliveries", r.AvgLatency, r.Delivered)
	case r.AvgPeakStorage < 0 || r.AvgPeakStorage > float64(r.MaxPeakStorage):
		return fmt.Errorf("mean peak storage %v above the maximum %d", r.AvgPeakStorage, r.MaxPeakStorage)
	case r.ControlFrames == 0:
		return fmt.Errorf("no control frames sent")
	case (len(sc.Faults) > 0) != (st.FaultDrops > 0):
		return fmt.Errorf("%d fault drops with %d fault models", st.FaultDrops, len(sc.Faults))
	}
	return nil
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// sampleHeap samples the bytes of live and not-yet-swept heap objects at
// 20 Hz through runtime/metrics, which does not stop the world. The
// returned function stops the sampler and returns the largest value seen.
func sampleHeap() (stop func() uint64) {
	done := make(chan struct{})
	result := make(chan uint64, 1)
	go func() {
		s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		read := func() {
			rtmetrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
		}
		read()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				read()
				result <- peak
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-result
	}
}

// runtimeStats are the cumulative GC counters a traced run reads.
type runtimeStats struct{ gcCycles, gcCPU float64 }

func readRuntime() runtimeStats {
	s := []rtmetrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return runtimeStats{gcCycles: float64(s[0].Value.Uint64()), gcCPU: s[1].Value.Float64()}
}

// medianTraced returns the traced run with the median run time among
// the runs that passed; its spans add up exactly, where per-metric
// medians would not.
func (s *session) medianTraced() (tracedRun, bool) {
	var ok []tracedRun
	for _, t := range s.traced {
		if t.problem == "" {
			ok = append(ok, t)
		}
	}
	if len(ok) == 0 {
		return tracedRun{}, false
	}
	sort.Slice(ok, func(a, b int) bool { return ok[a].run < ok[b].run })
	m := ok[(len(ok)-1)/2]
	// The tracing overhead is a property of the pairs, not of one run.
	var over []float64
	for _, t := range ok {
		over = append(over, t.layers["trace_overhead"])
	}
	layers := make(map[string]float64, len(m.layers))
	for k, v := range m.layers {
		layers[k] = v
	}
	layers["trace_overhead"] = summarize(over).Median
	m.layers = layers
	return m, true
}
