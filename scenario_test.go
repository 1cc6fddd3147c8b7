package glr

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"glr/internal/metrics"
	"glr/internal/sim"
)

// goldenSpec is one scenario description lowered two ways: through the
// builder's options, and by hand onto the simulator's sim.Scenario (the
// reference the golden tests compare the builder against). Zero values
// mean the paper's Table-1 defaults.
type goldenSpec struct {
	protocol      Protocol
	nodes         int
	rangeM        float64
	width, height float64
	messages      int
	traffic       []Message // nil: the paper's round-robin pattern
	simTime       float64
	storage       int
	static        bool
	maxSpeed      float64 // waypoint top speed
	seed          int64
	glrCfg        *GLRConfig
}

// options lowers the spec onto the builder.
func (g goldenSpec) options() []Option {
	opts := []Option{WithProtocol(g.protocol), WithSeed(g.seed)}
	if g.nodes > 0 {
		opts = append(opts, WithNodes(g.nodes))
	}
	if g.rangeM > 0 {
		opts = append(opts, WithRange(g.rangeM))
	}
	if g.width > 0 {
		opts = append(opts, WithRegion(g.width, g.height))
	}
	if g.simTime > 0 {
		opts = append(opts, WithSimTime(g.simTime))
	}
	if g.storage > 0 {
		opts = append(opts, WithStorageLimit(g.storage))
	}
	if g.static {
		opts = append(opts, WithMobility(Static{}))
	} else if g.maxSpeed > 0 {
		opts = append(opts, WithMobility(Waypoint{MaxSpeed: g.maxSpeed}))
	}
	if g.traffic != nil {
		opts = append(opts, WithWorkload(ScheduleWorkload(g.traffic)))
	} else if g.messages > 0 {
		opts = append(opts, WithWorkload(PaperWorkload{Messages: g.messages}))
	}
	if g.glrCfg != nil {
		opts = append(opts, WithGLR(*g.glrCfg))
	}
	return opts
}

// reference runs the spec by hand-lowering it onto sim.Scenario and the
// simulator directly, bypassing the scenario builder.
func (g goldenSpec) reference(t *testing.T) metrics.Report {
	t.Helper()
	rangeM := g.rangeM
	if rangeM == 0 {
		rangeM = 100
	}
	s := sim.DefaultScenario(rangeM)
	s.Seed = g.seed
	if g.nodes > 0 {
		s.N = g.nodes
	}
	if g.width > 0 {
		s.Region.W, s.Region.H = g.width, g.height
	}
	if g.static {
		s.Mobility = sim.MobilityStatic
	} else if g.maxSpeed > 0 {
		s.MaxSpeed = g.maxSpeed
	}
	s.StorageLimit = g.storage
	if g.traffic != nil {
		for _, m := range g.traffic {
			s.Traffic = append(s.Traffic, sim.TrafficItem{Src: m.Src, Dst: m.Dst, At: m.At})
		}
	} else {
		msgs := g.messages
		if msgs == 0 {
			msgs = 200
		}
		s.Traffic = sim.PaperTraffic(msgs)
	}
	s.SimTime = g.simTime
	if s.SimTime == 0 {
		for _, ti := range s.Traffic {
			s.SimTime = max(s.SimTime, ti.At)
		}
		s.SimTime += 600
	}
	factory, err := buildFactory(g.protocol, g.glrCfg)
	if err != nil {
		t.Fatalf("reference factory: %v", err)
	}
	w, err := sim.NewWorld(s, factory)
	if err != nil {
		t.Fatalf("reference world: %v", err)
	}
	return w.Run()
}

// randomGoldenSpec draws a small but structurally varied spec.
func randomGoldenSpec(rng *rand.Rand) goldenSpec {
	// The paper workload schedules 45 distinct sources, so node counts
	// stay at or above the paper's 50.
	g := goldenSpec{
		protocol: GLR,
		nodes:    50 + rng.Intn(10),
		rangeM:   120 + rng.Float64()*130,
		messages: 8 + rng.Intn(15),
		simTime:  100 + rng.Float64()*60,
		seed:     rng.Int63n(1 << 30),
	}
	if rng.Intn(2) == 0 {
		g.width, g.height = 800+rng.Float64()*700, 250+rng.Float64()*250
	}
	switch rng.Intn(3) {
	case 0:
		g.static = true
	case 1:
		g.maxSpeed = 5 + rng.Float64()*25
	}
	if rng.Intn(3) == 0 {
		g.storage = 3 + rng.Intn(10)
	}
	if rng.Intn(3) == 0 {
		g.traffic = make([]Message, 5+rng.Intn(10))
		for i := range g.traffic {
			src := rng.Intn(g.nodes)
			dst := rng.Intn(g.nodes - 1)
			if dst >= src {
				dst++
			}
			g.traffic[i] = Message{Src: src, Dst: dst, At: rng.Float64() * g.simTime / 2}
		}
	}
	switch rng.Intn(3) {
	case 0:
		g.glrCfg = &GLRConfig{
			CheckInterval:  0.5 + rng.Float64(),
			Copies:         rng.Intn(4),
			DisableCustody: rng.Intn(2) == 0,
			Location:       []string{"", "source", "all", "none"}[rng.Intn(4)],
		}
	case 1:
		g.protocol = Epidemic
	}
	return g
}

// TestGoldenBuilderEquivalence is the golden test of the scenario
// builder: across randomized specs, NewScenario's lowering must
// reproduce the hand-lowered simulator run's metrics.Report byte for
// byte, including with observers attached (observation is side-effect
// free).
func TestGoldenBuilderEquivalence(t *testing.T) {
	cases := 10
	if testing.Short() {
		cases = 4
	}
	rng := rand.New(rand.NewSource(20260729))
	for i := 0; i < cases; i++ {
		g := randomGoldenSpec(rng)
		t.Run(fmt.Sprintf("case%d", i), func(t *testing.T) {
			sc, err := NewScenario(g.options()...)
			if err != nil {
				t.Fatalf("builder scenario: %v", err)
			}
			built, err := sc.runSeed(t.Context(), sc.seed, true)
			if err != nil {
				t.Fatalf("builder run: %v", err)
			}
			if ref := g.reference(t); ref != built {
				t.Errorf("builder diverged from the reference lowering\nspec:      %+v\nreference: %+v\nbuilt:     %+v", g, ref, built)
			}
		})
	}
}

// TestGoldenRunAdapter pins the public entry points: Scenario.Run and
// RunContext must agree exactly with the hand-lowered reference.
func TestGoldenRunAdapter(t *testing.T) {
	g := goldenSpec{protocol: GLR, rangeM: 200, messages: 15, simTime: 150, seed: 1}
	want := Result(g.reference(t))
	sc, err := NewScenario(g.options()...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("Scenario.Run diverged from the reference: %+v vs %+v", got, want)
	}
	got, err = sc.RunContext(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("Scenario.RunContext diverged from the reference: %+v vs %+v", got, want)
	}
}

// TestScenarioDefaultsMatchLegacyDefaults: NewScenario() with no options
// must run exactly the paper's Table-1 scenario lowered by hand —
// sim.DefaultScenario(100), the 45-source pattern with 200 messages,
// and a horizon of the last generation plus 600 s.
func TestScenarioDefaultsMatchLegacyDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("full 200-message default run; skipped in -short")
	}
	sc, err := NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := Result(goldenSpec{protocol: GLR, seed: 1}.reference(t)); res != want {
		t.Errorf("builder defaults diverged from the Table-1 reference: %+v vs %+v", res, want)
	}
}

// TestMobilityModelsRun: every pluggable mobility model yields a
// working, deterministic scenario.
func TestMobilityModelsRun(t *testing.T) {
	tracePaths := make([][]TracePoint, 20)
	for i := range tracePaths {
		x := float64(50 + i*70)
		tracePaths[i] = []TracePoint{
			{T: 0, X: x, Y: 50},
			{T: 60, X: x, Y: 250},
			{T: 120, X: x, Y: 50},
		}
	}
	models := map[string]Mobility{
		"waypoint": Waypoint{MaxSpeed: 15, Pause: 2},
		"static":   Static{},
		"walk":     RandomWalk{MaxSpeed: 10, LegTime: 15},
		"trace":    Trace{Paths: tracePaths},
	}
	for name, m := range models {
		t.Run(name, func(t *testing.T) {
			opts := []Option{
				WithRange(250),
				WithMobility(m),
				WithWorkload(PaperWorkload{Messages: 8}),
				WithSimTime(120),
			}
			if name != "trace" {
				opts = append(opts, WithNodes(20))
			}
			sc, err := NewScenario(opts...)
			if err != nil {
				t.Fatal(err)
			}
			a, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			if a.Generated != 8 {
				t.Errorf("generated %d, want 8", a.Generated)
			}
			b, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Errorf("%s mobility not deterministic: %+v vs %+v", name, a, b)
			}
		})
	}
}

// TestTraceSetsNodeCount: with no WithNodes option the trajectory count
// determines the network size.
func TestTraceSetsNodeCount(t *testing.T) {
	paths := [][]TracePoint{
		{{T: 0, X: 100, Y: 100}},
		{{T: 0, X: 150, Y: 100}},
		{{T: 0, X: 200, Y: 100}},
	}
	sc, err := NewScenario(
		WithMobility(Trace{Paths: paths}),
		WithWorkload(ScheduleWorkload{{Src: 0, Dst: 2, At: 1}}),
		WithSimTime(60),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated != 1 {
		t.Errorf("generated %d, want 1", res.Generated)
	}
	// A *Trace infers the node count just like a Trace value.
	if _, err := NewScenario(
		WithMobility(&Trace{Paths: paths}),
		WithWorkload(ScheduleWorkload{{Src: 0, Dst: 2, At: 1}}),
		WithSimTime(60),
	); err != nil {
		t.Errorf("pointer Trace rejected: %v", err)
	}
	// Mismatched explicit node count must be rejected.
	if _, err := NewScenario(
		WithNodes(5),
		WithMobility(Trace{Paths: paths}),
	); err == nil {
		t.Error("trace count != node count accepted")
	}
}

// TestWorkloadsRun: every pluggable workload produces a valid,
// deterministic schedule.
func TestWorkloadsRun(t *testing.T) {
	loads := map[string]Workload{
		"paper":    PaperWorkload{Messages: 10},
		"uniform":  UniformWorkload{Messages: 10, Rate: 2},
		"poisson":  PoissonWorkload{Messages: 10, Rate: 2},
		"hotspot":  HotspotWorkload{Messages: 10, Rate: 2, Sinks: 3},
		"schedule": ScheduleWorkload{{Src: 0, Dst: 9, At: 1}, {Src: 5, Dst: 2, At: 3.5}},
	}
	for name, w := range loads {
		t.Run(name, func(t *testing.T) {
			sc, err := NewScenario(
				WithNodes(25),
				WithRange(250),
				WithWorkload(w),
				WithSimTime(130),
			)
			if err != nil {
				t.Fatal(err)
			}
			a, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			want := 10
			if name == "schedule" {
				want = 2
			}
			if a.Generated != want {
				t.Errorf("generated %d, want %d", a.Generated, want)
			}
			b, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Errorf("%s workload not deterministic", name)
			}
		})
	}
}

// TestPaperWorkloadSmallNetworks: the default workload must fit any
// node count WithNodes permits, shrinking its source set below the
// paper's 45 when the network cannot host it.
func TestPaperWorkloadSmallNetworks(t *testing.T) {
	for _, n := range []int{2, 5, 10, 46, 50} {
		sc, err := NewScenario(
			WithNodes(n),
			WithRange(250),
			WithWorkload(PaperWorkload{Messages: 30}),
			WithSimTime(80),
		)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		res, err := sc.Run()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Generated == 0 {
			t.Errorf("n=%d generated nothing", n)
		}
	}
	// The default workload with no options at all must also build.
	if _, err := NewScenario(WithNodes(10)); err != nil {
		t.Errorf("default workload rejected a 10-node network: %v", err)
	}
}

// TestWorkloadSeedVariation: randomized workloads must draw their
// schedules from the run seed, so different seeds give different
// traffic.
func TestWorkloadSeedVariation(t *testing.T) {
	w := PoissonWorkload{Messages: 30, Rate: 1}
	a, err := w.Schedule(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.Schedule(20, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical Poisson schedules")
	}
	c, err := w.Schedule(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != c[i] {
			t.Fatal("same seed produced different Poisson schedules")
		}
	}
}

// FuzzTrace: any scripted trajectory either fails scenario construction
// or the run with an error, or runs to its horizon without panicking.
// The fuzzer drives one node's three waypoints; two static nodes give
// the MAC and the router something to talk to.
func FuzzTrace(f *testing.F) {
	inf, nan := math.Inf(1), math.NaN()
	for _, seed := range [][9]float64{
		{0, 100, 100, 30, 400, 200, 60, 100, 100},
		// Non-finite times: a -Inf time makes Position interpolate
		// Inf/Inf, and the NaN position panics the radio index.
		{-inf, 100, 100, 0, 200, 150, 10, 250, 150},
		{0, 100, 100, nan, 200, 150, 10, 250, 150},
		{0, 100, 100, 5, 200, 150, inf, 250, 150},
		// Near-instant jumps: an extreme segment speed.
		{0, 0, 0, 1e-300, 500, 300, 1, 0, 0},
		{0, 0, 0, 5e-324, 500, 300, 1, 0, 0},
		// Positions outside the region, and NaN coordinates.
		{0, -1, 100, 5, 200, 150, 10, 250, 150},
		{0, nan, 100, 5, 200, nan, 10, 250, 150},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3], seed[4], seed[5], seed[6], seed[7], seed[8])
	}
	f.Fuzz(func(t *testing.T, t0, x0, y0, t1, x1, y1, t2, x2, y2 float64) {
		paths := [][]TracePoint{
			{{T: t0, X: x0, Y: y0}, {T: t1, X: x1, Y: y1}, {T: t2, X: x2, Y: y2}},
			{{T: 0, X: 150, Y: 150}},
			{{T: 0, X: 250, Y: 150}},
		}
		sc, err := NewScenario(
			WithMobility(Trace{Paths: paths}),
			WithRegion(500, 300),
			WithWorkload(UniformWorkload{Messages: 3}),
			WithSimTime(20),
		)
		if err != nil {
			return
		}
		sc.Run() // an error is an answer; only a panic fails
	})
}

// TestOptionValidation: malformed options fail at construction with
// descriptive errors.
func TestOptionValidation(t *testing.T) {
	cases := map[string][]Option{
		"nil option":         {nil},
		"one node":           {WithNodes(1)},
		"negative range":     {WithRange(-5)},
		"zero range":         {WithRange(0)},
		"bad region":         {WithRegion(100, -1)},
		"bad simtime":        {WithSimTime(-3)},
		"bad storage":        {WithStorageLimit(-1)},
		"bad protocol":       {WithProtocol("carrier-pigeon")},
		"nil mobility":       {WithMobility(nil)},
		"typed-nil mobility": {WithMobility((*Trace)(nil))},
		"nil workload":       {WithWorkload(nil)},
		"bad speeds":         {WithMobility(Waypoint{MinSpeed: 10, MaxSpeed: 5})},
		"min over default":   {WithMobility(Waypoint{MinSpeed: 25})}, // default max is 20
		"walk min over max":  {WithMobility(RandomWalk{MinSpeed: 25})},
		"negative speed":     {WithMobility(RandomWalk{MaxSpeed: -2})},
		"negative pause":     {WithMobility(Waypoint{Pause: -1})},
		"empty trace":        {WithMobility(Trace{})},
		"one-node trace": {
			WithMobility(Trace{Paths: [][]TracePoint{{{T: 0, X: 1, Y: 1}}}}),
			WithWorkload(UniformWorkload{Messages: 3}),
		},
		"negative messages": {WithWorkload(PaperWorkload{Messages: -1})},
		"negative rate":     {WithWorkload(UniformWorkload{Messages: 5, Rate: -1})},
		"too many sinks":    {WithNodes(5), WithWorkload(HotspotWorkload{Messages: 5, Sinks: 5})},
		"bad glr knob":      {WithGLR(GLRConfig{Copies: -2})},
		"bad glr location":  {WithGLR(GLRConfig{Location: "bogus"})},
	}
	for name, opts := range cases {
		if _, err := NewScenario(opts...); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestConfigValidation: invalid GLRConfig knobs error out at
// construction instead of silently passing through as "unset",
// whichever protocol the scenario runs.
func TestConfigValidation(t *testing.T) {
	for name, opt := range map[string]Option{
		"negative copies":         WithGLR(GLRConfig{Copies: -1}),
		"negative check interval": WithGLR(GLRConfig{CheckInterval: -0.5}),
	} {
		for _, p := range []Protocol{GLR, Epidemic} {
			_, err := NewScenario(WithProtocol(p), WithWorkload(PaperWorkload{Messages: 5}), WithSimTime(50), opt)
			if err == nil {
				t.Errorf("%s under %s: accepted", name, p)
			} else if !strings.Contains(err.Error(), "glr:") {
				// Errors carry the glr: prefix of the package.
				t.Errorf("%s: validation error %v lacks package prefix", name, err)
			}
		}
	}
}

// TestNonFiniteScenarioInputsRejected: NaN fails every ordered
// comparison and ±Inf passes some, so a non-finite float option,
// workload or mobility field must fail at NewScenario. Unchecked, such
// a value panicked the scheduler or a slice index (an Inf sample
// interval, a NaN leg time or rate), ran forever (an Inf horizon), or
// was silently replaced by its default (a NaN region, speed or check
// interval).
func TestNonFiniteScenarioInputsRejected(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	onSample := func(Sample) {}
	cases := map[string][]Option{
		"sample every +Inf":        {WithObserver(&Observer{SampleEvery: inf, OnSample: onSample})},
		"sample every NaN":         {WithObserver(&Observer{SampleEvery: nan, OnSample: onSample})},
		"walk leg time NaN":        {WithMobility(RandomWalk{MaxSpeed: 10, LegTime: nan})},
		"poisson rate NaN":         {WithWorkload(PoissonWorkload{Messages: 40, Rate: nan})},
		"uniform rate NaN":         {WithWorkload(UniformWorkload{Messages: 40, Rate: nan})},
		"sim time +Inf":            {WithSimTime(inf)},
		"sim time NaN":             {WithSimTime(nan)},
		"region width NaN":         {WithRegion(nan, 300)},
		"waypoint max speed NaN":   {WithMobility(Waypoint{MaxSpeed: nan})},
		"glr check interval NaN":   {WithGLR(GLRConfig{CheckInterval: nan})},
		"range +Inf":               {WithRange(inf)},
		"scheduled message at NaN": {WithWorkload(ScheduleWorkload{{Src: 0, Dst: 1, At: 5}, {Src: 1, Dst: 2, At: nan}})},
		"trace time NaN": {WithNodes(3), WithMobility(Trace{Paths: [][]TracePoint{
			{{T: nan, X: 100, Y: 100}}, {{T: 0, X: 150, Y: 100}}, {{T: 0, X: 200, Y: 100}},
		}})},
	}
	base := []Option{WithNodes(30), WithWorkload(UniformWorkload{Messages: 40}), WithSimTime(150)}
	if _, err := NewScenario(base...); err != nil {
		t.Fatalf("base scenario rejected: %v", err)
	}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) {
			sc, err := NewScenario(append(base[:len(base):len(base)], opts...)...)
			if err == nil {
				t.Fatal("NewScenario accepted it")
			}
			if sc != nil {
				t.Fatalf("NewScenario returned a scenario alongside error %v", err)
			}
		})
	}
	for name, m := range map[string]Matrix{
		"matrix range NaN":     {Ranges: []float64{100, nan}},
		"matrix sim time +Inf": {SimTime: inf},
	} {
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Matrix.Validate accepted it", name)
		}
	}
}

// TestNewScenarioRejectsUnrunnableWorlds: a mobility whose horizon needs
// more waypoint or walk legs per node than sim.MaxLegsPerNode, and a range
// whose MAC index query radius overflows, fail NewScenario. Before these
// checks, the first three ran out of memory drawing legs in Run and the
// range failed only in Run. Horizons just under the cap build.
func TestNewScenarioRejectsUnrunnableWorlds(t *testing.T) {
	const maxLegs = sim.MaxLegsPerNode
	cases := []struct {
		name string
		opt  Option
		ok   bool
	}{
		{"waypoint speed 1e300", WithMobility(Waypoint{MaxSpeed: 1e300}), false},
		{"region 1e-300", WithRegion(1e-300, 1e-300), false},
		{"walk leg 1e-9", WithMobility(RandomWalk{LegTime: 1e-9}), false},
		{"range 1e308", WithRange(1e308), false},
		{"walk just under the cap", WithMobility(RandomWalk{LegTime: 20 / (0.99 * maxLegs)}), true},
		{"waypoint just under the cap", WithMobility(Waypoint{MaxSpeed: 0.99 * maxLegs * 300 / 20}), true},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewScenario(WithNodes(6), WithWorkload(PaperWorkload{Messages: 4}), WithSimTime(20), tt.opt)
			if (err == nil) != tt.ok {
				t.Fatalf("NewScenario error = %v, want ok = %v", err, tt.ok)
			}
		})
	}
}

// FuzzScenarioOptions: any range, region, horizon, speed, pause, leg
// time, rate, check interval and sample interval either fails
// NewScenario with an error or builds a scenario. Small accepted ones
// also run, to an error or to their horizon; nothing may panic. Small
// means 6 nodes, a horizon of at most 30 s, and at most about 1000
// samples, route checks and mobility legs per node: a run asked for a
// route check every nanosecond, or for a node crossing the region a
// million times a second, is slow and large because it does what was
// asked.
func FuzzScenarioOptions(f *testing.F) {
	inf, nan := math.Inf(1), math.NaN()
	for _, seed := range [][10]float64{
		{100, 500, 300, 20, 20, 0, 20, 1, 0.9, 5},
		{250, 1000, 1000, 30, 5, 2, 3, 0.5, 0, 0},
		// The values that panicked, hung or were silently replaced
		// before every float input was checked for finiteness.
		{100, 500, 300, 20, 20, 0, 20, 1, 0.9, inf},
		{100, 500, 300, 20, 10, 0, nan, 1, 0.9, 0},
		{100, 500, 300, 20, 20, 0, 20, nan, 0.9, 0},
		{100, 500, 300, inf, 20, 0, 20, 1, 0.9, 0},
		{100, nan, 300, 20, 20, 0, 20, 1, 0.9, 0},
		{100, 500, 300, 20, nan, 0, 20, 1, nan, nan},
		{inf, 500, 300, 20, 20, 0, 20, 1, 0.9, 0},
	} {
		for _, walk := range []bool{false, true} {
			f.Add(walk, seed[0], seed[1], seed[2], seed[3], seed[4], seed[5], seed[6], seed[7], seed[8], seed[9])
		}
	}
	f.Fuzz(func(t *testing.T, walk bool, rangeM, width, height, simTime, speed, pause, leg, rate, check, every float64) {
		var mob Mobility = Waypoint{MaxSpeed: speed, Pause: pause}
		if walk {
			mob = RandomWalk{MaxSpeed: speed, LegTime: leg}
		}
		opts := []Option{
			WithNodes(6),
			WithRange(rangeM),
			WithRegion(width, height),
			WithSimTime(simTime),
			WithMobility(mob),
			WithWorkload(PoissonWorkload{Messages: 4, Rate: rate}),
			WithGLR(GLRConfig{CheckInterval: check}),
		}
		if every != 0 {
			opts = append(opts, WithObserver(&Observer{SampleEvery: every, OnSample: func(Sample) {}}))
		}
		sc, err := NewScenario(opts...)
		if (sc == nil) == (err == nil) {
			t.Fatalf("NewScenario = %v, %v; want exactly one of a scenario and an error", sc, err)
		}
		orDefault := func(x, def float64) float64 {
			if x == 0 {
				return def
			}
			return x
		}
		legs := simTime * orDefault(speed, 20) / min(width, height)
		if walk {
			legs = simTime / orDefault(leg, 20)
		}
		if err != nil || simTime > 30 || legs > 1000 || simTime/orDefault(check, 0.9) > 1000 ||
			(every > 0 && simTime/every > 1000) {
			return
		}
		sc.Run() // an error is an answer; only a panic fails
	})
}
