package sim

import (
	"fmt"
	"math/rand/v2"

	"glr/internal/des"
	"glr/internal/dtn"
	"glr/internal/fault"
	"glr/internal/geom"
	"glr/internal/mac"
	"glr/internal/metrics"
	"glr/internal/mobility"
	"glr/internal/rng"
)

// payloadBits is every message's application payload: the paper's 1000
// bytes.
const payloadBits = 1000 * 8

// ProtocolFactory builds one protocol instance per node.
type ProtocolFactory func(n *Node) Protocol

// World is one fully-wired simulation run.
type World struct {
	cfg       Scenario
	sched     *des.Scheduler
	medium    *mac.Medium
	nodes     []*Node
	collector *metrics.Collector
	rng       *rand.Rand

	// models holds each node's movement model and segs, indexed by node
	// id alike, the trajectory piece last drawn from it: positions are
	// read from segs, and an entry is redrawn only once the clock has
	// left its window (see pos).
	models []mobility.Model
	segs   []mobility.Segment

	// ranks numbers the messages cfg.Traffic generates (see
	// messageRanks); nil until a protocol first asks for it, so worlds
	// whose protocol never does pay nothing.
	ranks *dtn.MessageRanks

	// prof accumulates per-phase wall clock when EnablePhaseProfile was
	// called (nil = off, the default; see phaseprof.go).
	prof *PhaseProf

	// plan is the compiled fault set (nil = fault-free run; every
	// fault-path check is gated on it so the zero-fault hot path pays
	// one nil comparison). downCount and faultHook track and surface
	// fault occurrences; see fault.go.
	plan      *fault.Plan
	downCount int
	faultHook func(fault.Event)

	// Free lists (the internal/des pattern) for the per-send objects of
	// the hot path: broadcast hellos with their payload buffers, and
	// generic protocol frames. Single-threaded like the scheduler.
	freeBeacons []*beaconFrame
	freeFrames  []*mac.Frame
}

// beaconFrame couples one pooled hello with its MAC frame so frame,
// payload box, and advertised-neighbor buffer all recycle together when
// the MAC reports the broadcast sent. Receivers copy what they keep
// (NeighborTable.Observe row-owned storage), so recycling at that point
// is safe.
type beaconFrame struct {
	frame mac.Frame
	b     Beacon
}

// takeBeacon returns a recycled (or fresh) pooled hello.
func (w *World) takeBeacon() *beaconFrame {
	if n := len(w.freeBeacons); n > 0 {
		bf := w.freeBeacons[n-1]
		w.freeBeacons = w.freeBeacons[:n-1]
		return bf
	}
	return &beaconFrame{}
}

// putBeacon recycles bf, keeping its advertised-neighbor buffer.
func (w *World) putBeacon(bf *beaconFrame) {
	adv := bf.b.Neighbors[:0]
	bf.frame = mac.Frame{}
	bf.b = Beacon{Neighbors: adv}
	w.freeBeacons = append(w.freeBeacons, bf)
}

// takeFrame returns a recycled (or fresh) MAC frame for a protocol send.
func (w *World) takeFrame() *mac.Frame {
	if n := len(w.freeFrames); n > 0 {
		f := w.freeFrames[n-1]
		w.freeFrames = w.freeFrames[:n-1]
		return f
	}
	return &mac.Frame{}
}

// putFrame recycles f once the MAC has fully resolved it (onSent), the
// only point after which neither the medium nor any receiver reads it.
func (w *World) putFrame(f *mac.Frame) {
	*f = mac.Frame{}
	w.freeFrames = append(w.freeFrames, f)
}

// NewWorld wires a scenario and a protocol factory into a runnable world.
func NewWorld(cfg Scenario, factory ProtocolFactory) (*World, error) {
	return newWorld(cfg, factory, cfg.macConfig())
}

// newWorld is NewWorld on the MAC configuration macCfg, which tests
// widen into a full scan of the radios.
func newWorld(cfg Scenario, factory ProtocolFactory, macCfg mac.Config) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := &World{
		cfg:       cfg,
		collector: metrics.NewCollector(cfg.N),
		rng:       rng.New(cfg.Seed),
	}
	// Compile the fault plan first: its churn schedule draws from its
	// own rng.New stream, never the world stream seeded above, so a
	// fault-free scenario's draws — and everything downstream — are
	// untouched.
	var err error
	w.plan, err = fault.Compile(cfg.Faults, cfg.N, cfg.Region, cfg.SimTime, cfg.Seed)
	if err != nil {
		return nil, err
	}
	w.sched = des.NewScheduler()

	if w.plan != nil {
		// Blackouts and crashed receivers gate reception inside the
		// medium through a pure predicate of its arguments.
		macCfg.DropRx = w.plan.BlocksReception
	}
	w.medium, err = mac.NewMedium(w.sched, macCfg, cfg.Seed^0x5eed, cfg.Region.W, cfg.Region.H, cfg.N, w.pos)
	if err != nil {
		return nil, err
	}
	if w.models, err = w.buildMobility(); err != nil {
		return nil, err
	}
	// Zero segments cover no time, so each is drawn on its first read.
	w.segs = make([]mobility.Segment, cfg.N)

	for i := 0; i < cfg.N; i++ {
		n := &Node{
			id:    i,
			world: w,
			rng:   rng.New(cfg.Seed + int64(i)*104729 + 7),
		}
		n.radio, err = w.medium.AddRadio(i, n.onReceive, n.onSent)
		if err != nil {
			return nil, err
		}
		n.proto = factory(n)
		if n.proto == nil {
			return nil, fmt.Errorf("sim: protocol factory returned nil for node %d", i)
		}
		if w.plan != nil && w.plan.Byzantine(i) {
			n.proto = byzantineProto{n.proto}
		}
		w.nodes = append(w.nodes, n)
	}
	for _, n := range w.nodes {
		n.proto.Init(n)
	}
	w.scheduleBeacons()
	w.scheduleTraffic()
	w.scheduleStorageSampler()
	w.scheduleReindex()
	w.scheduleFaults()
	return w, nil
}

// pos returns node id's position now: its cached trajectory segment,
// redrawn from the node's model only when the clock has left the
// segment's window.
func (w *World) pos(id int) geom.Point {
	now := w.sched.Now()
	s := &w.segs[id]
	if !s.Covers(now) {
		*s = w.models[id].Segment(now)
	}
	return s.At(now)
}

// scheduleReindex amortizes spatial-index maintenance over beacon ticks:
// one bulk refresh of every radio's grid cell per beacon interval bounds
// cell staleness to the drift the medium's IndexSlack covers.
func (w *World) scheduleReindex() {
	des.NewTicker(w.sched, beaconInterval, 0, func() {
		if w.prof != nil {
			defer w.prof.clock(&w.prof.Mobility)()
		}
		w.medium.Reindex()
	})
}

// sendBeacons fires the hellos of the nodes due at one beacon-ring
// event, in id order.
func (w *World) sendBeacons(due []int) {
	if w.prof != nil {
		defer w.prof.clock(&w.prof.Beacon)()
	}
	for _, id := range due {
		w.nodes[id].sendBeacon()
	}
}

// scheduleBeacons arms the hello beacons with random phases so nodes do
// not fire in lockstep (IMEP's periodic link/connection status sensing).
// The phases are drawn from the world RNG in node-id order; one beacon
// ring then fires every node's hellos (see beaconRing).
func (w *World) scheduleBeacons() {
	phases := make([]float64, len(w.nodes))
	for i := range phases {
		phases[i] = w.rng.Float64() * beaconInterval
	}
	newBeaconRing(w.sched, phases, w.sendBeacons).arm()
}

// scheduleTraffic arms one generation event per traffic item.
func (w *World) scheduleTraffic() {
	seq := make([]int, w.cfg.N)
	for _, ti := range w.cfg.Traffic {
		ti := ti
		w.sched.At(ti.At, func() {
			src := w.nodes[ti.Src]
			m := &dtn.Message{
				ID:          dtn.MessageID{Src: ti.Src, Seq: seq[ti.Src]},
				Dst:         ti.Dst,
				Created:     w.sched.Now(),
				PayloadBits: payloadBits,
			}
			seq[ti.Src]++
			w.collector.Created(m.ID, m.Created, m.Dst)
			src.proto.OnMessageGenerated(m)
		})
	}
}

// messageRanks returns the world's message rank table, built on first
// use. scheduleTraffic numbers each source's messages 0, 1, 2, … in
// generation order, so a source's count of traffic items is the size of
// its Seq range, whatever the order in which the items fire.
func (w *World) messageRanks() *dtn.MessageRanks {
	if w.ranks == nil {
		count := make([]int, w.cfg.N)
		for _, ti := range w.cfg.Traffic {
			count[ti.Src]++
		}
		w.ranks = dtn.NewMessageRanks(count)
	}
	return w.ranks
}

// scheduleStorageSampler folds each node's occupancy into its running
// peak every second (Tables 4–5).
func (w *World) scheduleStorageSampler() {
	des.NewTicker(w.sched, 1.0, 0.5, func() {
		for i, n := range w.nodes {
			w.collector.SampleStorage(i, n.proto.StorageUsed())
		}
	})
}

// buildMobility creates one movement model per node, seeded from the
// scenario seed.
func (w *World) buildMobility() ([]mobility.Model, error) {
	cfg := w.cfg
	switch cfg.Mobility {
	case MobilityWaypoint:
		return mobility.WaypointField(cfg.N, mobility.WaypointConfig{
			Region:   cfg.Region,
			MinSpeed: cfg.MinSpeed,
			MaxSpeed: cfg.MaxSpeed,
			Pause:    cfg.Pause,
		}, cfg.Seed*31+17)
	case MobilityStatic:
		return mobility.UniformStatic(cfg.N, cfg.Region, rng.New(cfg.Seed*31+17)), nil
	case MobilityRandomWalk:
		models := make([]mobility.Model, cfg.N)
		for i := range models {
			m, err := mobility.NewRandomWalk(mobility.RandomWalkConfig{
				Region:   cfg.Region,
				MinSpeed: cfg.MinSpeed,
				MaxSpeed: cfg.MaxSpeed,
				LegTime:  cfg.WalkLegTime,
			}, cfg.Seed*31+17+int64(i)*7919)
			if err != nil {
				return nil, err
			}
			models[i] = m
		}
		return models, nil
	case MobilityTrace:
		models := make([]mobility.Model, cfg.N)
		for i := range models {
			m, err := mobility.NewTrace(cfg.Traces[i])
			if err != nil {
				return nil, fmt.Errorf("sim: node %d: %w", i, err)
			}
			models[i] = m
		}
		return models, nil
	default:
		return nil, fmt.Errorf("sim: unknown mobility kind %d", cfg.Mobility)
	}
}

// Node returns the i-th node.
func (w *World) Node(i int) *Node { return w.nodes[i] }

// Scheduler returns the event scheduler (tests and tools).
func (w *World) Scheduler() *des.Scheduler { return w.sched }

// Medium returns the shared MAC medium.
func (w *World) Medium() *mac.Medium { return w.medium }

// Collector returns the metrics collector.
func (w *World) Collector() *metrics.Collector { return w.collector }

// Run executes the scenario to its horizon and returns the run report.
// Beaconing, traffic, and sampling were armed at construction, so tests
// may alternatively step the Scheduler directly for partial runs.
func (w *World) Run() metrics.Report {
	w.sched.Run(w.cfg.SimTime)
	// Final storage sample at the horizon.
	for i, n := range w.nodes {
		w.collector.SampleStorage(i, n.proto.StorageUsed())
	}
	return w.collector.Report()
}
