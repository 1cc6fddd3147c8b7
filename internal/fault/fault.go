// Package fault models disruption injected into a simulation run:
// stochastic link blackouts, scheduled region blackouts, node churn
// (crash/restart with state loss), GPS error on advertised positions,
// and Byzantine nodes that lie about their location and silently drop
// custody. A set of declarative Specs compiles into a Plan whose
// queries are pure functions of the compiled state and their arguments,
// so the same (specs, n, region, horizon, seed) tuple always replays
// the identical fault schedule — independent of call order.
//
// Determinism contract. Stochastic faults (link blackouts, GPS noise,
// Byzantine membership) are stateless: each query hashes (seed, salt,
// arguments) through rng.SplitMix64, so the same question always gets
// the same answer with no shared mutable state.
// Churn is precomputed: Compile draws every outage interval up front
// from its own rng.New stream (never the world's streams, whose draw
// sequences must stay byte-identical to a fault-free run), and Down is
// a binary search over the sorted schedule.
package fault

import (
	"fmt"
	"math"
	"sort"

	"glr/internal/geom"
	"glr/internal/mobility"
	"glr/internal/rng"
)

// Kind identifies one disruption model.
type Kind string

// The disruption models a Spec can declare.
const (
	// LinkBlackout severs random links: in every epoch of length
	// Period, each unordered node pair is independently blacked out
	// with probability Rate (frames between the pair are lost).
	LinkBlackout Kind = "link-blackout"
	// RegionBlackout jams a rectangle for a scheduled window: frames
	// with either endpoint inside [X,X+W]×[Y,Y+H] are lost while
	// Start ≤ t < End.
	RegionBlackout Kind = "region-blackout"
	// Churn crashes nodes and restarts them with state loss: each node
	// fails as a Poisson process of rate Rate (crashes per second) and
	// stays down for Duration seconds per outage.
	Churn Kind = "churn"
	// GPSNoise perturbs the position a node advertises in its beacons
	// by independent Gaussian error with standard deviation Sigma
	// meters per axis (clamped to the deployment region).
	GPSNoise Kind = "gps-noise"
	// Byzantine marks a Fraction of nodes adversarial: they advertise
	// a lying position (mirrored across the region center) and
	// silently drop every protocol frame handed to them, losing any
	// custody without acknowledgment.
	Byzantine Kind = "byzantine"
)

// Spec declares one fault model. It is flat and serializable so fault
// sets can ride through scenario matrices and result caches; fields
// not used by a Kind must stay zero.
type Spec struct {
	// Kind selects the model.
	Kind Kind
	// Rate is the per-epoch link-blackout probability (LinkBlackout,
	// in [0,1]) or the per-node crash rate in crashes per second
	// (Churn).
	Rate float64
	// Period is the LinkBlackout epoch length in seconds (default 10).
	Period float64
	// Duration is the Churn per-outage downtime in seconds.
	Duration float64
	// Start and End bound the RegionBlackout window ([Start, End)).
	Start, End float64
	// X, Y, W, H is the RegionBlackout rectangle.
	X, Y, W, H float64
	// Sigma is the GPSNoise per-axis standard deviation in meters.
	Sigma float64
	// Fraction is the Byzantine share of nodes, in [0,1].
	Fraction float64
}

// defaultLinkPeriod is the epoch length a LinkBlackout spec with zero
// Period resolves to.
const defaultLinkPeriod = 10.0

// Validate checks the spec against the deployment region and horizon,
// rejecting non-finite values, negative rates and durations,
// probabilities outside [0,1], blackout rectangles outside the region,
// and inverted windows.
func (s Spec) Validate(region mobility.Region, simTime float64) error {
	// NaN fails every ordered comparison below and ±Inf passes some of
	// them, so non-finite values are rejected up front.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"rate", s.Rate}, {"period", s.Period}, {"duration", s.Duration},
		{"start", s.Start}, {"end", s.End},
		{"x", s.X}, {"y", s.Y}, {"w", s.W}, {"h", s.H},
		{"sigma", s.Sigma}, {"fraction", s.Fraction},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("fault: %s %s %v is not finite", s.Kind, f.name, f.v)
		}
	}
	switch s.Kind {
	case LinkBlackout:
		if s.Rate < 0 || s.Rate > 1 {
			return fmt.Errorf("fault: %s rate %v outside [0,1]", s.Kind, s.Rate)
		}
		if s.Period < 0 {
			return fmt.Errorf("fault: %s period %v is negative", s.Kind, s.Period)
		}
	case RegionBlackout:
		if s.W < 0 || s.H < 0 {
			return fmt.Errorf("fault: %s rectangle %vx%v has negative size", s.Kind, s.W, s.H)
		}
		if s.X < 0 || s.Y < 0 || s.X+s.W > region.W || s.Y+s.H > region.H {
			return fmt.Errorf("fault: %s rectangle (%v,%v)+%vx%v outside region %vx%v",
				s.Kind, s.X, s.Y, s.W, s.H, region.W, region.H)
		}
		if s.Start < 0 || s.End < s.Start {
			return fmt.Errorf("fault: %s window [%v,%v) is invalid", s.Kind, s.Start, s.End)
		}
	case Churn:
		if s.Rate < 0 {
			return fmt.Errorf("fault: %s rate %v is negative", s.Kind, s.Rate)
		}
		if s.Duration < 0 {
			return fmt.Errorf("fault: %s duration %v is negative", s.Kind, s.Duration)
		}
		if s.Rate > 0 && s.Duration == 0 {
			return fmt.Errorf("fault: %s needs a positive outage duration", s.Kind)
		}
	case GPSNoise:
		if s.Sigma < 0 {
			return fmt.Errorf("fault: %s sigma %v is negative", s.Kind, s.Sigma)
		}
	case Byzantine:
		if s.Fraction < 0 || s.Fraction > 1 {
			return fmt.Errorf("fault: %s fraction %v outside [0,1]", s.Kind, s.Fraction)
		}
	default:
		return fmt.Errorf("fault: unknown kind %q", s.Kind)
	}
	return nil
}

// Event is one fault occurrence surfaced to observers: a node crash or
// restart, or a region blackout starting or lifting.
type Event struct {
	// Kind is the model that fired (Churn or RegionBlackout).
	Kind Kind
	// Time is the simulation time of the occurrence.
	Time float64
	// Node is the affected node, or -1 for region-scoped events.
	Node int
	// Restored is false when disruption begins (crash, blackout start)
	// and true when it ends (restart, blackout lift).
	Restored bool
}

// Outage is one churn interval: node is down in [Down, Up).
type Outage struct {
	Node     int
	Down, Up float64
}

// Window is one scheduled region-blackout activation, for observer
// notifications.
type Window struct {
	Start, End float64
}

// Plan is a compiled fault set. All query methods are pure: they read
// only immutable compiled state and their arguments, so they are safe
// to call concurrently.
type Plan struct {
	seed   int64
	region mobility.Region

	links     []Spec // LinkBlackout specs with Period defaulted
	regions   []Spec // RegionBlackout specs
	sigma     float64
	byzantine []bool

	outages []Outage // all churn intervals, sorted by (Down, Node)
	perNode [][2]int // per-node [first,last) range into byNode
	byNode  []Outage // churn intervals grouped by node, time-sorted
	windows []Window // region-blackout activations, time-sorted
}

// Hash salts separating the independent stochastic streams.
const (
	saltLink = 0x6c696e6b // "link"
	saltGPS  = 0x67707378 // "gpsx"
	saltGPSY = 0x67707379 // "gpsy"
	saltByz  = 0x62797a61 // "byza"
)

// u01 hashes (seed, salt, a, b, c) to a uniform float in [0,1).
func (p *Plan) u01(salt, a, b, c uint64) float64 {
	h := rng.SplitMix64(uint64(p.seed) ^ salt)
	h = rng.SplitMix64(h ^ a)
	h = rng.SplitMix64(h ^ b)
	h = rng.SplitMix64(h ^ c)
	return float64(h>>11) / (1 << 53)
}

// Compile resolves a fault set for a run: it validates every spec,
// draws the full churn schedule from an rng.New stream seeded by the
// run seed under a salt of its own, and fixes Byzantine membership. A
// nil plan (no specs) means a fault-free run; callers must not touch
// the world's own streams here, so fault-free runs stay byte-identical
// to a build without this package.
func Compile(specs []Spec, n int, region mobility.Region, simTime float64, seed int64) (*Plan, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	p := &Plan{seed: seed, region: region, byzantine: make([]bool, n)}
	// The churn stream is independent of every world RNG: world seeds
	// derive from cfg.Seed via documented offsets, so a distinct salt
	// keeps the streams disjoint.
	churnRNG := rng.New(seed ^ 0x6661756c74 /* "fault" */)
	for _, s := range specs {
		if err := s.Validate(region, simTime); err != nil {
			return nil, err
		}
		switch s.Kind {
		case LinkBlackout:
			if s.Rate == 0 {
				continue
			}
			if s.Period == 0 {
				s.Period = defaultLinkPeriod
			}
			p.links = append(p.links, s)
		case RegionBlackout:
			if s.W == 0 || s.H == 0 || s.End == s.Start {
				continue
			}
			end := math.Min(s.End, simTime)
			if end > s.Start {
				p.windows = append(p.windows, Window{Start: s.Start, End: end})
			}
			p.regions = append(p.regions, s)
		case Churn:
			if s.Rate == 0 {
				continue
			}
			for node := 0; node < n; node++ {
				t := churnRNG.ExpFloat64() / s.Rate
				for t < simTime {
					up := math.Min(t+s.Duration, simTime)
					p.outages = append(p.outages, Outage{Node: node, Down: t, Up: up})
					t = up + churnRNG.ExpFloat64()/s.Rate
				}
			}
		case GPSNoise:
			// Multiple noise specs compose as independent Gaussians.
			p.sigma = math.Sqrt(p.sigma*p.sigma + s.Sigma*s.Sigma)
		case Byzantine:
			for _, node := range p.selectByzantine(s.Fraction, n) {
				p.byzantine[node] = true
			}
		}
	}
	sort.Slice(p.outages, func(i, j int) bool {
		if p.outages[i].Down != p.outages[j].Down {
			return p.outages[i].Down < p.outages[j].Down
		}
		return p.outages[i].Node < p.outages[j].Node
	})
	sort.Slice(p.windows, func(i, j int) bool { return p.windows[i].Start < p.windows[j].Start })
	p.indexOutages(n)
	return p, nil
}

// selectByzantine picks round(fraction*n) nodes by hash ranking: every
// node draws a stable score, the lowest scores are adversarial. The
// same seed always corrupts the same nodes; growing the fraction only
// adds members.
func (p *Plan) selectByzantine(fraction float64, n int) []int {
	k := int(math.Round(fraction * float64(n)))
	if k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	sort.Slice(nodes, func(i, j int) bool {
		si := p.u01(saltByz, uint64(nodes[i]), 0, 0)
		sj := p.u01(saltByz, uint64(nodes[j]), 0, 0)
		if si != sj {
			return si < sj
		}
		return nodes[i] < nodes[j]
	})
	return nodes[:k]
}

// indexOutages groups the outage schedule by node for Down's binary
// search.
func (p *Plan) indexOutages(n int) {
	p.byNode = append([]Outage(nil), p.outages...)
	sort.Slice(p.byNode, func(i, j int) bool {
		if p.byNode[i].Node != p.byNode[j].Node {
			return p.byNode[i].Node < p.byNode[j].Node
		}
		return p.byNode[i].Down < p.byNode[j].Down
	})
	p.perNode = make([][2]int, n)
	for i := range p.perNode {
		p.perNode[i] = [2]int{len(p.byNode), len(p.byNode)}
	}
	for i := 0; i < len(p.byNode); {
		j := i
		for j < len(p.byNode) && p.byNode[j].Node == p.byNode[i].Node {
			j++
		}
		p.perNode[p.byNode[i].Node] = [2]int{i, j}
		i = j
	}
}

// Outages returns the full churn schedule sorted by (Down, Node), for
// event scheduling and replay tests.
func (p *Plan) Outages() []Outage { return p.outages }

// Windows returns the scheduled region-blackout activations in start
// order, for observer notifications.
func (p *Plan) Windows() []Window { return p.windows }

// Down reports whether node is crashed at time t.
func (p *Plan) Down(node int, t float64) bool {
	r := p.perNode[node]
	ivls := p.byNode[r[0]:r[1]]
	// First interval starting after t; the one before it is the only
	// candidate containing t.
	i := sort.Search(len(ivls), func(i int) bool { return ivls[i].Down > t })
	return i > 0 && t < ivls[i-1].Up
}

// DownCount reports how many nodes are crashed at time t (for
// fault-intensity sampling; O(outages)).
func (p *Plan) DownCount(t float64) int {
	c := 0
	for _, o := range p.outages {
		if o.Down <= t && t < o.Up {
			c++
		}
	}
	return c
}

// Byzantine reports whether node is adversarial.
func (p *Plan) Byzantine(node int) bool { return p.byzantine[node] }

// BlocksReception reports whether a frame from src arriving at dst at
// time t must be lost: the receiver is crashed, the pair's link is
// blacked out this epoch, or either endpoint sits inside an active
// region blackout. Pure.
func (p *Plan) BlocksReception(src, dst int, t float64, srcPos, dstPos geom.Point) bool {
	if p.Down(dst, t) {
		return true
	}
	for _, s := range p.links {
		lo, hi := src, dst
		if lo > hi {
			lo, hi = hi, lo
		}
		epoch := uint64(math.Floor(t / s.Period))
		if p.u01(saltLink, uint64(lo), uint64(hi), epoch) < s.Rate {
			return true
		}
	}
	for _, s := range p.regions {
		if t < s.Start || t >= s.End {
			continue
		}
		if inRect(srcPos, s) || inRect(dstPos, s) {
			return true
		}
	}
	return false
}

func inRect(pt geom.Point, s Spec) bool {
	return pt.X >= s.X && pt.X <= s.X+s.W && pt.Y >= s.Y && pt.Y <= s.Y+s.H
}

// AdvertisedPos returns the position node claims in a beacon sent at
// time t from truePos: Byzantine nodes lie (the point mirrored across
// the region center), honest nodes report truePos perturbed by GPS
// noise, clamped to the region. Pure; the perturbation depends only on
// (seed, node, t).
func (p *Plan) AdvertisedPos(node int, t float64, truePos geom.Point) geom.Point {
	if p.byzantine[node] {
		return geom.Point{X: p.region.W - truePos.X, Y: p.region.H - truePos.Y}
	}
	if p.sigma == 0 {
		return truePos
	}
	tb := math.Float64bits(t)
	u1 := p.u01(saltGPS, uint64(node), tb, 0)
	u2 := p.u01(saltGPSY, uint64(node), tb, 0)
	// Box-Muller; u1 is bounded away from 0 so the log is finite.
	r := p.sigma * math.Sqrt(-2*math.Log(1-u1))
	dx := r * math.Cos(2*math.Pi*u2)
	dy := r * math.Sin(2*math.Pi*u2)
	return geom.Point{
		X: clamp(truePos.X+dx, 0, p.region.W),
		Y: clamp(truePos.Y+dy, 0, p.region.H),
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
