package glr

import (
	"context"
	"fmt"
	"math"
	"reflect"

	"glr/internal/geom"
	"glr/internal/metrics"
	"glr/internal/mobility"
	"glr/internal/sim"
)

// Scenario is a fully described simulation scenario built with
// NewScenario. It is immutable after construction; Run / RunContext
// execute it, and Runner replicates it across seeds and protocols.
type Scenario struct {
	protocol     Protocol
	nodes        int     // 0 = paper's 50
	rangeM       float64 // 0 = 100 m
	width        float64 // 0 (with height 0) = paper's 1500×300
	height       float64
	simTime      float64 // 0 = horizon derived from the workload
	storageLimit int
	seed         int64

	mob       Mobility // nil = Waypoint{} (the paper's model)
	work      Workload // nil = PaperWorkload{}
	glrCfg    *GLRConfig
	observers []*Observer
	faults    []Fault // WithFaults: empty = fault-free
}

// Option configures a Scenario under construction.
type Option func(*Scenario) error

// NewScenario builds a scenario from functional options. With no
// options it is the paper's Table-1 baseline: 50 nodes at 100 m range
// on a 1500×300 m strip, random waypoint 0–20 m/s, the paper's
// round-robin workload (200 messages), GLR routing.
func NewScenario(opts ...Option) (*Scenario, error) {
	s := &Scenario{protocol: GLR, seed: 1}
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("glr: nil Option")
		}
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	// Surface configuration errors at construction, not first Run.
	if _, _, err := s.compile(s.seed); err != nil {
		return nil, err
	}
	return s, nil
}

// WithProtocol selects the routing protocol (default GLR).
func WithProtocol(p Protocol) Option {
	return func(s *Scenario) error {
		switch p {
		case GLR, Epidemic, "":
			s.protocol = p
			return nil
		default:
			return fmt.Errorf("glr: unknown protocol %q", p)
		}
	}
}

// WithNodes sets the network size (default: the paper's 50).
func WithNodes(n int) Option {
	return func(s *Scenario) error {
		if n < 2 {
			return fmt.Errorf("glr: need at least 2 nodes, got %d", n)
		}
		s.nodes = n
		return nil
	}
}

// WithRange sets the transmission range in metres (default 100).
func WithRange(metres float64) Option {
	return func(s *Scenario) error {
		if metres <= 0 || !finite(metres) {
			return fmt.Errorf("glr: range %v must be positive and finite", metres)
		}
		s.rangeM = metres
		return nil
	}
}

// WithRegion sets the deployment region in metres (default: the
// paper's 1500×300 strip).
func WithRegion(width, height float64) Option {
	return func(s *Scenario) error {
		if width <= 0 || height <= 0 || !finite(width, height) {
			return fmt.Errorf("glr: region %vx%v must be positive and finite", width, height)
		}
		s.width, s.height = width, height
		return nil
	}
}

// WithSimTime fixes the simulation horizon in seconds. Without it the
// horizon is the last scheduled generation plus 600 s of delivery
// slack.
func WithSimTime(seconds float64) Option {
	return func(s *Scenario) error {
		if seconds <= 0 || !finite(seconds) {
			return fmt.Errorf("glr: sim time %v must be positive and finite", seconds)
		}
		s.simTime = seconds
		return nil
	}
}

// WithStorageLimit bounds per-node message storage (default 0 =
// unlimited).
func WithStorageLimit(messages int) Option {
	return func(s *Scenario) error {
		if messages < 0 {
			return fmt.Errorf("glr: storage limit %d must be nonnegative", messages)
		}
		s.storageLimit = messages
		return nil
	}
}

// WithSeed sets the base RNG seed (default 1). Runner replications use
// this as the base of their per-seed derivation.
func WithSeed(seed int64) Option {
	return func(s *Scenario) error {
		s.seed = seed
		return nil
	}
}

// WithMobility selects the movement model (default Waypoint{}).
func WithMobility(m Mobility) Option {
	return func(s *Scenario) error {
		if m == nil || isNilPointer(m) {
			return fmt.Errorf("glr: nil Mobility")
		}
		s.mob = m
		return nil
	}
}

// isNilPointer catches typed-nil pointers hiding inside a non-nil
// interface (e.g. (*Trace)(nil)), which would panic on method dispatch.
func isNilPointer(v any) bool {
	rv := reflect.ValueOf(v)
	return rv.Kind() == reflect.Pointer && rv.IsNil()
}

// WithWorkload selects the traffic generator (default PaperWorkload{}).
func WithWorkload(w Workload) Option {
	return func(s *Scenario) error {
		if w == nil || isNilPointer(w) {
			return fmt.Errorf("glr: nil Workload")
		}
		s.work = w
		return nil
	}
}

// WithGLR overrides the GLR protocol knobs (see GLRConfig).
func WithGLR(cfg GLRConfig) Option {
	return func(s *Scenario) error {
		s.glrCfg = &cfg
		return nil
	}
}

// WithObserver attaches an observer to the scenario's runs. Several
// observers may be attached; callbacks fire in attachment order.
// Observers are read-only probes: an observed run produces exactly the
// same Result as an unobserved one. Runner ignores observers (its runs
// execute concurrently; see Runner).
func WithObserver(o *Observer) Option {
	return func(s *Scenario) error {
		if o == nil {
			return fmt.Errorf("glr: nil Observer")
		}
		if o.SampleEvery < 0 || !finite(o.SampleEvery) {
			return fmt.Errorf("glr: Observer.SampleEvery %v must be nonnegative and finite", o.SampleEvery)
		}
		if o.SampleEvery > 0 && o.OnSample == nil {
			return fmt.Errorf("glr: Observer.SampleEvery set without OnSample")
		}
		if o.OnSample != nil && o.SampleEvery == 0 {
			return fmt.Errorf("glr: Observer.OnSample set without SampleEvery")
		}
		s.observers = append(s.observers, o)
		return nil
	}
}

// Run executes the scenario once and returns its metrics.
func (s *Scenario) Run() (Result, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cancellation: once ctx is done the simulation
// is abandoned between event batches and ctx's error returned.
func (s *Scenario) RunContext(ctx context.Context) (Result, error) {
	rep, err := s.runSeed(ctx, s.seed, true)
	if err != nil {
		return Result{}, err
	}
	return Result(rep), nil
}

// runSeed compiles and executes one replication. Observers attach only
// when observe is set (Runner runs replications concurrently and keeps
// them detached).
func (s *Scenario) runSeed(ctx context.Context, seed int64, observe bool) (metrics.Report, error) {
	scn, factory, err := s.compile(seed)
	if err != nil {
		return metrics.Report{}, err
	}
	w, err := sim.NewWorld(scn, factory)
	if err != nil {
		return metrics.Report{}, err
	}
	if observe {
		s.attachObservers(w)
	}
	return w.RunContext(ctx)
}

// compile lowers the public scenario onto the internal simulator types,
// with the given seed substituted for the base seed (Runner
// replications re-derive the workload from their run seed, so traffic
// randomization is independent across replications).
func (s *Scenario) compile(seed int64) (sim.Scenario, sim.ProtocolFactory, error) {
	rangeM := s.rangeM
	if rangeM == 0 {
		rangeM = 100
	}
	scn := sim.DefaultScenario(rangeM)
	scn.Seed = seed
	if s.nodes > 0 {
		scn.N = s.nodes
	} else if paths, ok := tracePaths(s.mob); ok {
		// Trace mobility pins one trajectory per node; without an
		// explicit node count the trace set determines it.
		scn.N = len(paths)
	}
	if s.width > 0 && s.height > 0 {
		scn.Region.W, scn.Region.H = s.width, s.height
	}
	scn.StorageLimit = s.storageLimit

	// Workload generators draw random pairs over scn.N; reject
	// degenerate sizes before they schedule (a one-trajectory Trace can
	// reach here without WithNodes).
	if scn.N < 2 {
		return sim.Scenario{}, nil, fmt.Errorf("glr: need at least 2 nodes, got %d", scn.N)
	}

	mob := s.mob
	if mob == nil {
		mob = Waypoint{}
	}
	if err := mob.apply(&scn); err != nil {
		return sim.Scenario{}, nil, err
	}

	work := s.work
	if work == nil {
		work = PaperWorkload{}
	}
	msgs, err := work.Schedule(scn.N, seed)
	if err != nil {
		return sim.Scenario{}, nil, err
	}
	for i, m := range msgs {
		if !finite(m.At) {
			return sim.Scenario{}, nil, fmt.Errorf("glr: message %d time %v is not finite", i, m.At)
		}
		scn.Traffic = append(scn.Traffic, sim.TrafficItem{Src: m.Src, Dst: m.Dst, At: m.At})
	}

	for _, f := range s.faults {
		scn.Faults = append(scn.Faults, f.spec())
	}

	if s.simTime > 0 {
		scn.SimTime = s.simTime
	} else {
		last := 0.0
		for _, ti := range scn.Traffic {
			if ti.At > last {
				last = ti.At
			}
		}
		scn.SimTime = last + 600
	}
	if err := scn.Validate(); err != nil {
		return sim.Scenario{}, nil, err
	}
	factory, err := buildFactory(s.protocol, s.glrCfg)
	if err != nil {
		return sim.Scenario{}, nil, err
	}
	return scn, factory, nil
}

// Mobility is a pluggable movement model for WithMobility. The four
// implementations — Waypoint, Static, RandomWalk, Trace — cover every
// model the simulator provides; the set is closed because models
// evaluate trajectories inside the simulation core.
type Mobility interface {
	apply(s *sim.Scenario) error
}

// Waypoint is the paper's random waypoint model: travel to a uniform
// destination at a uniform random speed, pause, repeat. Zero values
// take the paper's defaults (0–20 m/s, no pause).
type Waypoint struct {
	MinSpeed float64 // m/s (default 0)
	MaxSpeed float64 // m/s (default 20)
	Pause    float64 // seconds at each waypoint (default 0)
}

func (m Waypoint) apply(s *sim.Scenario) error {
	if err := checkSpeeds(m.MinSpeed, m.MaxSpeed, m.Pause); err != nil {
		return err
	}
	s.Mobility = sim.MobilityWaypoint
	s.MinSpeed = m.MinSpeed
	if m.MaxSpeed > 0 {
		s.MaxSpeed = m.MaxSpeed
	}
	s.Pause = m.Pause
	return nil
}

// Static places nodes uniformly at random and never moves them.
type Static struct{}

func (Static) apply(s *sim.Scenario) error {
	s.Mobility = sim.MobilityStatic
	return nil
}

// RandomWalk is a reflecting random walk: pick a uniform direction,
// travel for LegTime seconds at a uniform random speed, reflect off
// region boundaries. Zero values default to 0–20 m/s legs of 20 s.
type RandomWalk struct {
	MinSpeed float64 // m/s (default 0)
	MaxSpeed float64 // m/s (default 20)
	LegTime  float64 // seconds per straight leg (default 20)
}

func (m RandomWalk) apply(s *sim.Scenario) error {
	if err := checkSpeeds(m.MinSpeed, m.MaxSpeed, 0); err != nil {
		return err
	}
	if m.LegTime < 0 || !finite(m.LegTime) {
		return fmt.Errorf("glr: random-walk leg time %v must be nonnegative and finite", m.LegTime)
	}
	s.Mobility = sim.MobilityRandomWalk
	s.MinSpeed = m.MinSpeed
	if m.MaxSpeed > 0 {
		s.MaxSpeed = m.MaxSpeed
	}
	s.WalkLegTime = m.LegTime
	if s.WalkLegTime == 0 {
		s.WalkLegTime = 20
	}
	return nil
}

// TracePoint is one scripted waypoint of a Trace: be at (X, Y) at time
// T. Between waypoints positions interpolate linearly; after the last
// waypoint the node holds position.
type TracePoint struct {
	T    float64 // seconds
	X, Y float64 // metres
}

// Trace replays scripted trajectories, one per node — GPS logs, contact
// traces, or hand-built topologies (a single waypoint pins a node to a
// fixed position). The trace count must match the node count; with no
// WithNodes option the trace count sets it.
type Trace struct {
	Paths [][]TracePoint
}

func (m Trace) apply(s *sim.Scenario) error {
	if len(m.Paths) == 0 {
		return fmt.Errorf("glr: trace mobility needs at least one trajectory")
	}
	s.Mobility = sim.MobilityTrace
	s.Traces = make([][]mobility.TracePoint, len(m.Paths))
	for i, path := range m.Paths {
		pts := make([]mobility.TracePoint, len(path))
		for j, tp := range path {
			if !finite(tp.T, tp.X, tp.Y) {
				return fmt.Errorf("glr: trace %d waypoint %d %+v is not finite", i, j, tp)
			}
			pts[j] = mobility.TracePoint{T: tp.T, P: geom.Pt(tp.X, tp.Y)}
		}
		s.Traces[i] = pts
	}
	return nil
}

// tracePaths unwraps a Trace mobility (value or pointer — both satisfy
// Mobility) for node-count inference.
func tracePaths(m Mobility) ([][]TracePoint, bool) {
	switch tr := m.(type) {
	case Trace:
		return tr.Paths, true
	case *Trace:
		if tr == nil {
			return nil, false
		}
		return tr.Paths, true
	default:
		return nil, false
	}
}

func checkSpeeds(minSpeed, maxSpeed, pause float64) error {
	if minSpeed < 0 || maxSpeed < 0 || !finite(minSpeed, maxSpeed) {
		return fmt.Errorf("glr: speeds [%v,%v] must be nonnegative and finite", minSpeed, maxSpeed)
	}
	eff := maxSpeed
	if eff == 0 {
		eff = 20 // the paper's default top speed applies when unset
	}
	if minSpeed > eff {
		return fmt.Errorf("glr: min speed %v exceeds max %v", minSpeed, eff)
	}
	if pause < 0 || !finite(pause) {
		return fmt.Errorf("glr: pause %v must be nonnegative and finite", pause)
	}
	return nil
}

// finite reports whether every x is a number other than ±Inf. NaN
// fails every ordered comparison and +Inf passes "> 0", so each float
// option, workload and mobility field checks it beside its range.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Workload is a pluggable traffic generator for WithWorkload. Schedule
// returns the message generations for a run over n nodes; randomized
// workloads must derive all randomness from seed (the run's seed, which
// Runner varies per replication) so runs stay reproducible.
//
// Applications may implement Workload themselves. Schedule must be safe
// for concurrent use — Runner compiles replications on parallel workers
// against the one shared value — so implementations should be stateless
// (like the value types here), seeding a fresh RNG per call rather than
// holding one.
type Workload interface {
	Schedule(n int, seed int64) ([]Message, error)
}

// workloadSeed decorrelates a workload's randomness from the run seed
// that also drives mobility and the MAC.
func workloadSeed(seed int64) int64 { return seed*977 + 5 }

// PaperWorkload is the paper's evaluation traffic: 45 sources sending
// round-robin to 44 destinations at one message per second network-wide.
// Messages 0 means the package default of 200; the paper's full load is
// 1980. For networks smaller than 45 nodes the source set shrinks to n
// (all nodes send and receive) so the pattern still fits. Like the
// paper's schedule, the pattern is finite: Messages beyond
// sources×(sources−1) — 1980 at full size, n×(n−1) below it — are
// truncated to the pattern's capacity.
type PaperWorkload struct {
	Messages int
}

// Schedule implements Workload.
func (w PaperWorkload) Schedule(n int, seed int64) ([]Message, error) {
	msgs := w.Messages
	if msgs == 0 {
		msgs = 200
	}
	if msgs < 0 {
		return nil, fmt.Errorf("glr: message count %d must be nonnegative", w.Messages)
	}
	return fromTraffic(sim.PaperTrafficN(n, msgs)), nil
}

// UniformWorkload generates messages between uniformly random distinct
// pairs at a fixed rate. Zero values: 200 messages at 1 msg/s.
type UniformWorkload struct {
	Messages int
	Rate     float64 // messages/second
}

// Schedule implements Workload.
func (w UniformWorkload) Schedule(n int, seed int64) ([]Message, error) {
	msgs, rate, err := countRate(w.Messages, w.Rate)
	if err != nil {
		return nil, err
	}
	return fromTraffic(sim.UniformTraffic(n, msgs, rate, workloadSeed(seed))), nil
}

// PoissonWorkload generates messages between uniformly random distinct
// pairs whose arrivals form a Poisson process (exponential
// inter-arrival gaps with mean 1/Rate). Zero values: 200 messages at
// 1 msg/s.
type PoissonWorkload struct {
	Messages int
	Rate     float64 // mean messages/second
}

// Schedule implements Workload.
func (w PoissonWorkload) Schedule(n int, seed int64) ([]Message, error) {
	msgs, rate, err := countRate(w.Messages, w.Rate)
	if err != nil {
		return nil, err
	}
	return fromTraffic(sim.PoissonTraffic(n, msgs, rate, workloadSeed(seed))), nil
}

// HotspotWorkload concentrates all traffic on a few sink nodes (ids
// 0..Sinks-1), with sources uniform over the rest — the
// "sensors report to collection points" workload. Zero values: 200
// messages at 1 msg/s to a single sink.
type HotspotWorkload struct {
	Messages int
	Rate     float64 // messages/second
	Sinks    int     // number of sink nodes (default 1)
}

// Schedule implements Workload.
func (w HotspotWorkload) Schedule(n int, seed int64) ([]Message, error) {
	msgs, rate, err := countRate(w.Messages, w.Rate)
	if err != nil {
		return nil, err
	}
	if w.Sinks < 0 {
		return nil, fmt.Errorf("glr: sink count %d must be nonnegative", w.Sinks)
	}
	sinks := w.Sinks
	if sinks == 0 {
		sinks = 1
	}
	if sinks > n-1 {
		return nil, fmt.Errorf("glr: %d sinks leave no sources among %d nodes", sinks, n)
	}
	return fromTraffic(sim.HotspotTraffic(n, msgs, sinks, rate, workloadSeed(seed))), nil
}

// ScheduleWorkload is an explicit message schedule, replayed verbatim.
type ScheduleWorkload []Message

// Schedule implements Workload.
func (w ScheduleWorkload) Schedule(n int, seed int64) ([]Message, error) {
	out := make([]Message, len(w))
	copy(out, w)
	return out, nil
}

func countRate(messages int, rate float64) (int, float64, error) {
	if messages < 0 {
		return 0, 0, fmt.Errorf("glr: message count %d must be nonnegative", messages)
	}
	if rate < 0 || !finite(rate) {
		return 0, 0, fmt.Errorf("glr: rate %v must be nonnegative and finite", rate)
	}
	if messages == 0 {
		messages = 200
	}
	if rate == 0 {
		rate = 1
	}
	return messages, rate, nil
}

func fromTraffic(items []sim.TrafficItem) []Message {
	out := make([]Message, len(items))
	for i, ti := range items {
		out[i] = Message{Src: ti.Src, Dst: ti.Dst, At: ti.At}
	}
	return out
}
