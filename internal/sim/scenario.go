// Package sim is the simulation engine: it wires mobility models, the
// shared MAC medium, per-node protocol instances, IMEP-style beaconing,
// the paper's traffic pattern, and metric collection into a reproducible
// discrete-event run. It replaces the NS-2 scenario scripts of the
// evaluation.
//
// The hello timing is fixed, as in the paper's IMEP stack: every node
// beacons once per second (beaconInterval), at a random phase drawn per
// node, and drops a neighbor unheard for 2.5 s (neighborExpiry), which
// tolerates one lost hello. The radio index is refreshed on the same
// one-second period.
package sim

import (
	"fmt"

	"glr/internal/fault"
	"glr/internal/mac"
	"glr/internal/mobility"
	"glr/internal/rng"
)

// MobilityKind selects the movement model for a scenario.
type MobilityKind int

// Supported mobility models. All four models of internal/mobility are
// reachable: the paper's random waypoint, uniform static placement, a
// reflecting random walk, and scripted traces.
const (
	MobilityWaypoint   MobilityKind = iota // the paper's random waypoint
	MobilityStatic                         // uniform static placement
	MobilityRandomWalk                     // reflecting random walk (WalkLegTime)
	MobilityTrace                          // scripted trajectories (Traces)
)

// String implements fmt.Stringer.
func (k MobilityKind) String() string {
	switch k {
	case MobilityWaypoint:
		return "waypoint"
	case MobilityStatic:
		return "static"
	case MobilityRandomWalk:
		return "randomwalk"
	case MobilityTrace:
		return "trace"
	default:
		return fmt.Sprintf("MobilityKind(%d)", int(k))
	}
}

// The fixed hello timing of the package doc, in seconds.
const (
	// beaconInterval is the IMEP-style neighborhood sensing period: one
	// hello per node per interval, and one radio-index refresh.
	beaconInterval = 1.0
	// neighborExpiry drops a neighbor unheard for this long. It must
	// exceed beaconInterval, or live neighbors would expire between
	// their hellos.
	neighborExpiry = 2.5
	// advSlots is the length of each node's ring of advertised lists
	// (advRing). Receivers' rows read a list until neighborExpiry after
	// its hello, so a slot comes round again only after
	// advSlots·beaconInterval > neighborExpiry, when no row reads it.
	advSlots = 4
)

// Scenario describes one simulation run. The zero value is not runnable;
// start from DefaultScenario.
type Scenario struct {
	Seed int64

	N       int     // number of nodes (paper: 50)
	Range   float64 // transmission range in metres (paper: 50–250)
	SimTime float64 // seconds (paper: 1200 or 3800)

	Region   mobility.Region // paper: 1500 × 300 m
	Mobility MobilityKind
	MinSpeed float64 // m/s (paper: 0)
	MaxSpeed float64 // m/s (paper: 20)
	Pause    float64 // s   (paper: 0)

	// WalkLegTime is the straight-leg duration of the random-walk model
	// (required > 0 when Mobility is MobilityRandomWalk; speeds reuse
	// MinSpeed/MaxSpeed).
	WalkLegTime float64
	// Traces holds one scripted trajectory per node (required, length N,
	// when Mobility is MobilityTrace). Trajectories interpolate linearly
	// between waypoints, hold the last position afterwards, and must stay
	// inside Region.
	Traces [][]mobility.TracePoint

	Traffic []TrafficItem

	// StorageLimit bounds per-node message storage (0 = unlimited); the
	// Figure-7 experiment sweeps this.
	StorageLimit int

	// Faults lists the disruption models injected into the run (see
	// internal/fault). Empty means a fault-free run, byte-identical to
	// a build without the fault subsystem; the same Seed always replays
	// the identical fault schedule.
	Faults []fault.Spec
}

// DefaultScenario returns the paper's Table-1 baseline at the given
// transmission range.
func DefaultScenario(rng float64) Scenario {
	return Scenario{
		Seed:     1,
		N:        50,
		Range:    rng,
		SimTime:  3800,
		Region:   mobility.Region{W: 1500, H: 300},
		Mobility: MobilityWaypoint,
		MinSpeed: 0,
		MaxSpeed: 20,
		Pause:    0,
	}
}

// Validate reports a descriptive error for unusable scenarios.
func (s Scenario) Validate() error {
	switch {
	case s.N <= 1:
		return fmt.Errorf("sim: need at least 2 nodes, got %d", s.N)
	case s.Range <= 0:
		return fmt.Errorf("sim: range %v must be positive", s.Range)
	case s.SimTime <= 0:
		return fmt.Errorf("sim: sim time %v must be positive", s.SimTime)
	case s.Region.W <= 0 || s.Region.H <= 0:
		return fmt.Errorf("sim: region %vx%v must be positive", s.Region.W, s.Region.H)
	case s.StorageLimit < 0:
		return fmt.Errorf("sim: storage limit %d must be nonnegative", s.StorageLimit)
	}
	switch s.Mobility {
	case MobilityWaypoint, MobilityStatic:
	case MobilityRandomWalk:
		if s.WalkLegTime <= 0 {
			return fmt.Errorf("sim: random-walk mobility needs WalkLegTime > 0, got %v", s.WalkLegTime)
		}
	case MobilityTrace:
		if len(s.Traces) != s.N {
			return fmt.Errorf("sim: trace mobility needs one trajectory per node (%d), got %d", s.N, len(s.Traces))
		}
		for i, tr := range s.Traces {
			if len(tr) == 0 {
				return fmt.Errorf("sim: trace for node %d is empty", i)
			}
			for j, tp := range tr {
				if j > 0 && tp.T <= tr[j-1].T {
					return fmt.Errorf("sim: trace for node %d has non-increasing time at waypoint %d", i, j)
				}
				if !s.Region.Contains(tp.P) {
					return fmt.Errorf("sim: trace for node %d leaves the region at waypoint %d (%v)", i, j, tp.P)
				}
			}
		}
	default:
		return fmt.Errorf("sim: unknown mobility kind %d", int(s.Mobility))
	}
	for i, ti := range s.Traffic {
		if ti.Src < 0 || ti.Src >= s.N || ti.Dst < 0 || ti.Dst >= s.N || ti.Src == ti.Dst {
			return fmt.Errorf("sim: traffic[%d] endpoints (%d→%d) invalid", i, ti.Src, ti.Dst)
		}
		if !(ti.At >= 0 && ti.At <= s.SimTime) { // NaN fails both
			return fmt.Errorf("sim: traffic[%d] time %v outside run", i, ti.At)
		}
	}
	for i, fs := range s.Faults {
		if err := fs.Validate(s.Region, s.SimTime); err != nil {
			return fmt.Errorf("sim: faults[%d]: %w", i, err)
		}
	}
	if legs := s.mobilityLegs(); legs > MaxLegsPerNode {
		return fmt.Errorf("sim: %v mobility would draw about %.3g legs per node over %v s, more than %d",
			s.Mobility, legs, s.SimTime, MaxLegsPerNode)
	}
	return s.macConfig().Validate()
}

// MaxLegsPerNode caps the straight legs a random waypoint or random walk
// trajectory may need over the horizon. Models remember every leg they
// draw, and a leg shorter than the clock's float resolution would never
// advance time, so an uncapped speed, region or leg time could exhaust
// memory before the run starts. The paper's world needs about 250.
const MaxLegsPerNode = 100_000

// mobilityLegs estimates the legs per node the mobility model draws over
// the horizon: one per LegTime for the random walk, and for the random
// waypoint one per crossing of the region's short side at top speed.
func (s Scenario) mobilityLegs() float64 {
	switch s.Mobility {
	case MobilityWaypoint:
		return s.SimTime * s.MaxSpeed / min(s.Region.W, s.Region.H)
	case MobilityRandomWalk:
		return s.SimTime / s.WalkLegTime
	}
	return 0
}

// maxDriftSpeed returns the fastest any node can move, for sizing the
// radio index's staleness slack: the configured MaxSpeed for the
// speed-parameterized models, the fastest trajectory segment for
// scripted traces (which are not bounded by MaxSpeed).
func (s Scenario) maxDriftSpeed() float64 {
	if s.Mobility != MobilityTrace {
		return s.MaxSpeed
	}
	top := 0.0
	for _, tr := range s.Traces {
		for j := 1; j < len(tr); j++ {
			dt := tr[j].T - tr[j-1].T
			if dt <= 0 {
				continue // Validate rejects these; stay safe regardless
			}
			if v := tr[j].P.Dist(tr[j-1].P) / dt; v > top {
				top = v
			}
		}
	}
	return top
}

// macConfig returns the MAC configuration for the scenario. The
// medium's radio index is refreshed once per beacon interval (see
// World.scheduleReindex), so indexed positions can be stale by up to
// top-speed × beaconInterval metres of movement, and its queries return
// exactly the radios within Range+IndexSlack: the slack is that drift
// bound plus a safety metre. The top speed comes from the mobility
// model — for traces it is the fastest scripted segment, which MaxSpeed
// does not bound. Validate checks the result.
func (s Scenario) macConfig() mac.Config {
	return mac.Config{Range: s.Range, IndexSlack: s.maxDriftSpeed()*beaconInterval + 1}
}

// TrafficItem schedules one message generation.
type TrafficItem struct {
	Src, Dst int
	At       float64
}

// PaperTraffic reproduces the evaluation workload: "a subset of 50 nodes
// act as sources and destinations, with each of 45 nodes sending packets
// to other 44 nodes (1980 messages total). Packets are generated every
// second." Messages are interleaved round-robin across the 45 sources (one
// message per second network-wide) so that a prefix of the schedule — the
// paper's 400/600/890/1180-message runs — still spreads load evenly.
func PaperTraffic(count int) []TrafficItem {
	return PaperTrafficN(46, count)
}

// PaperTrafficN is PaperTraffic generalized to networks smaller than the
// paper's: the round-robin source set shrinks from 45 to n when n cannot
// host it, preserving the pattern's shape (every source sends to every
// other source in turn, one message per second network-wide).
func PaperTrafficN(n, count int) []TrafficItem {
	sources := 45
	if n < sources {
		sources = n
	}
	if sources < 2 {
		return nil
	}
	if count > sources*(sources-1) {
		count = sources * (sources - 1)
	}
	items := make([]TrafficItem, 0, count)
	for k := 0; len(items) < count; k++ {
		src := k % sources
		round := k / sources // index into src's destination list
		if round >= sources-1 {
			break
		}
		dst := round
		if dst >= src {
			dst++ // skip self
		}
		items = append(items, TrafficItem{Src: src, Dst: dst, At: float64(k + 1)})
	}
	return items
}

// UniformTraffic generates count messages between uniformly random
// distinct pairs over n nodes at the given rate (messages/second),
// deterministically from the seed. Useful for custom examples.
func UniformTraffic(n, count int, rate float64, seed int64) []TrafficItem {
	r := rng.New(seed)
	items := make([]TrafficItem, count)
	for i := range items {
		src := r.IntN(n)
		dst := r.IntN(n - 1)
		if dst >= src {
			dst++
		}
		items[i] = TrafficItem{Src: src, Dst: dst, At: float64(i) / rate}
	}
	return items
}

// PoissonTraffic generates count messages between uniformly random
// distinct pairs whose arrivals form a Poisson process of the given rate
// (messages/second): inter-arrival gaps are exponential with mean
// 1/rate, deterministically from the seed.
func PoissonTraffic(n, count int, rate float64, seed int64) []TrafficItem {
	r := rng.New(seed)
	items := make([]TrafficItem, count)
	at := 0.0
	for i := range items {
		at += r.ExpFloat64() / rate
		src := r.IntN(n)
		dst := r.IntN(n - 1)
		if dst >= src {
			dst++
		}
		items[i] = TrafficItem{Src: src, Dst: dst, At: at}
	}
	return items
}

// HotspotTraffic generates count messages at the given rate
// (messages/second) whose destinations concentrate on the first sinks
// node ids — the "everyone reports to a few collection points" workload
// — with sources uniform over the remaining nodes. Like the other
// generators it assumes a valid shape: 1 ≤ sinks ≤ n-1 (callers
// validate; the public glr.HotspotWorkload rejects anything else).
func HotspotTraffic(n, count, sinks int, rate float64, seed int64) []TrafficItem {
	r := rng.New(seed)
	items := make([]TrafficItem, count)
	for i := range items {
		dst := r.IntN(sinks)
		src := sinks + r.IntN(n-sinks)
		items[i] = TrafficItem{Src: src, Dst: dst, At: float64(i) / rate}
	}
	return items
}
