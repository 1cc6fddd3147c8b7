// Package mobility provides node movement models for the simulator: the
// random waypoint model used by the paper (NS-2 setdest equivalent), plus
// static placements, a reflecting random walk, and scripted traces.
//
// Every trajectory is piecewise linear. A model answers Segment(t): the
// piece covering t, with the window of times it covers, so the
// discrete-event simulator never steps positions forward tick by tick:
// it keeps each node's current piece and evaluates it exactly at event
// times, asking the model again only once the clock leaves the piece's
// window. Trajectories are generated lazily but remembered, so Segment
// may be queried at arbitrary (also non-monotone) times and always
// returns the same piece for the same t.
//
// A single model instance is NOT safe for concurrent use (lazy trajectory
// extension mutates internal state, and the randomized models each own a
// private RNG), but distinct instances share nothing — every stochastic
// model is seeded with its own stream precisely so trajectories never
// depend on cross-node query interleaving.
package mobility

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"glr/internal/geom"
	"glr/internal/rng"
)

// Model yields the trajectory piece covering any simulated time t.
type Model interface {
	Segment(t float64) Segment
}

// Segment is one linear piece of a trajectory, valid for the times
// Lo < t ≤ Hi: the node stands at From until T0, moves in a straight
// line to reach To at T1, and stands at To from Hold on. A random
// waypoint or walk leg holds from its arrival (Hold = T1, then the
// pause); a trace piece interpolates all the way to its closed end
// (Hold = +Inf), which is where the piece's own arithmetic, not the
// next waypoint, gives the position; a constant piece has T0 = +Inf.
type Segment struct {
	Lo, Hi   float64
	T0, T1   float64
	Hold     float64
	From, To geom.Point
}

// constant returns the piece standing at p over (lo, hi].
func constant(lo, hi float64, p geom.Point) Segment {
	inf := math.Inf(1)
	return Segment{Lo: lo, Hi: hi, T0: inf, T1: inf, Hold: inf, From: p, To: p}
}

// Covers reports whether t lies in the segment's window (Lo, Hi].
func (s *Segment) Covers(t float64) bool { return s.Lo < t && t <= s.Hi }

// At returns the position at time t, which must lie in the window.
func (s *Segment) At(t float64) geom.Point {
	switch {
	case t >= s.Hold:
		return s.To
	case t <= s.T0:
		return s.From
	}
	return s.From.Lerp(s.To, (t-s.T0)/(s.T1-s.T0))
}

// Region is an axis-aligned rectangle [0,W]×[0,H] in metres.
type Region struct {
	W, H float64
}

// Contains reports whether p lies inside the region (inclusive).
func (r Region) Contains(p geom.Point) bool {
	return p.X >= 0 && p.X <= r.W && p.Y >= 0 && p.Y <= r.H
}

// Area returns the region's area in square metres.
func (r Region) Area() float64 { return r.W * r.H }

// RandomPoint returns a uniform point in the region.
func (r Region) RandomPoint(src *rand.Rand) geom.Point {
	return geom.Pt(src.Float64()*r.W, src.Float64()*r.H)
}

// Static is a model that never moves.
type Static struct {
	P geom.Point
}

// Segment implements Model: one piece covering all time.
func (s Static) Segment(float64) Segment { return constant(math.Inf(-1), math.Inf(1), s.P) }

// WaypointConfig parameterises the random waypoint model. The paper's
// setting is MinSpeed≈0, MaxSpeed=20 m/s, Pause=0 on a 1500×300 m region.
type WaypointConfig struct {
	Region   Region
	MinSpeed float64 // m/s; clamped up to a small positive floor
	MaxSpeed float64 // m/s
	Pause    float64 // seconds at each waypoint
}

// speedFloor avoids the classical random-waypoint pathology where speeds
// drawn arbitrarily close to zero make a node crawl for unbounded time.
const speedFloor = 0.1

// Validate reports a descriptive error for nonsensical configurations.
func (c WaypointConfig) Validate() error {
	if c.Region.W <= 0 || c.Region.H <= 0 {
		return fmt.Errorf("mobility: region %vx%v must be positive", c.Region.W, c.Region.H)
	}
	if c.MaxSpeed <= 0 {
		return fmt.Errorf("mobility: max speed %v must be positive", c.MaxSpeed)
	}
	if c.MinSpeed > c.MaxSpeed {
		return fmt.Errorf("mobility: min speed %v exceeds max %v", c.MinSpeed, c.MaxSpeed)
	}
	if c.Pause < 0 {
		return fmt.Errorf("mobility: pause %v must be nonnegative", c.Pause)
	}
	return nil
}

// leg is one movement episode: travel from from to to over [t0, t1], then
// stand still at to until t1+pause.
type leg struct {
	t0, t1 float64
	from   geom.Point
	to     geom.Point
	pause  float64
}

func (l leg) end() float64 { return l.t1 + l.pause }

// trajectory is the lazily drawn leg sequence of the random waypoint and
// random walk models. It starts with one leg and keeps every leg drawn,
// so a position never changes once answered.
type trajectory []leg

// segment returns the leg covering time t as a Segment, first appending
// legs drawn by next until the last one ends at or after t. Leg i covers
// (end of leg i-1, end of leg i]; the first leg also covers every
// negative t, where the node stands at its start point.
func (tr *trajectory) segment(t float64, next func(t0 float64, from geom.Point) leg) Segment {
	legs := *tr
	for legs[len(legs)-1].end() < t {
		last := legs[len(legs)-1]
		legs = append(legs, next(last.end(), last.to))
	}
	*tr = legs
	// Binary search for the covering leg.
	lo, hi := 0, len(legs)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if legs[mid].end() < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	l := legs[lo]
	prevEnd := math.Inf(-1)
	if lo > 0 {
		prevEnd = legs[lo-1].end()
	}
	return Segment{Lo: prevEnd, Hi: l.end(), T0: l.t0, T1: l.t1, Hold: l.t1, From: l.from, To: l.to}
}

// Waypoint is the random waypoint mobility model: pick a uniform
// destination in the region, travel to it in a straight line at a uniform
// random speed, pause, repeat.
type Waypoint struct {
	cfg  WaypointConfig
	rng  *rand.Rand
	legs trajectory
}

// NewWaypoint creates a waypoint model with its own rng.New stream for
// seed (the model consumes randomness lazily; sharing a stream across
// models would make trajectories depend on query interleaving,
// destroying reproducibility). A stream is 32 bytes (the generator and
// its PCG state), so a 10000-node field carries no per-node table.
func NewWaypoint(cfg WaypointConfig, seed int64) (*Waypoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := &Waypoint{cfg: cfg, rng: rng.New(seed)}
	start := cfg.Region.RandomPoint(w.rng)
	w.legs = append(w.legs, w.nextLeg(0, start))
	return w, nil
}

func (w *Waypoint) nextLeg(t0 float64, from geom.Point) leg {
	to := w.cfg.Region.RandomPoint(w.rng)
	lo := math.Max(w.cfg.MinSpeed, speedFloor)
	hi := math.Max(w.cfg.MaxSpeed, lo)
	speed := lo + w.rng.Float64()*(hi-lo)
	dist := from.Dist(to)
	dur := dist / speed
	if dur == 0 {
		dur = 1e-9 // degenerate zero-length hop; keep time advancing
	}
	return leg{t0: t0, t1: t0 + dur, from: from, to: to, pause: w.cfg.Pause}
}

// Segment implements Model: the leg covering t.
func (w *Waypoint) Segment(t float64) Segment { return w.legs.segment(t, w.nextLeg) }

// RandomWalkConfig parameterises the reflecting random walk model.
type RandomWalkConfig struct {
	Region   Region
	MinSpeed float64
	MaxSpeed float64
	LegTime  float64 // duration of each straight leg, seconds
}

// RandomWalk moves in a uniformly random direction for LegTime seconds at a
// uniform random speed, reflecting off region boundaries.
type RandomWalk struct {
	cfg  RandomWalkConfig
	rng  *rand.Rand
	legs trajectory
}

// NewRandomWalk creates a random-walk model with its own rng.New stream
// for seed, as NewWaypoint does.
func NewRandomWalk(cfg RandomWalkConfig, seed int64) (*RandomWalk, error) {
	if cfg.Region.W <= 0 || cfg.Region.H <= 0 {
		return nil, fmt.Errorf("mobility: region %vx%v must be positive", cfg.Region.W, cfg.Region.H)
	}
	if cfg.LegTime <= 0 {
		return nil, fmt.Errorf("mobility: leg time %v must be positive", cfg.LegTime)
	}
	if cfg.MaxSpeed <= 0 || cfg.MinSpeed > cfg.MaxSpeed {
		return nil, fmt.Errorf("mobility: bad speed range [%v,%v]", cfg.MinSpeed, cfg.MaxSpeed)
	}
	w := &RandomWalk{cfg: cfg, rng: rng.New(seed)}
	start := cfg.Region.RandomPoint(w.rng)
	w.legs = append(w.legs, w.nextLeg(0, start))
	return w, nil
}

func (w *RandomWalk) nextLeg(t0 float64, from geom.Point) leg {
	theta := w.rng.Float64() * 2 * math.Pi
	lo := math.Max(w.cfg.MinSpeed, speedFloor)
	hi := math.Max(w.cfg.MaxSpeed, lo)
	speed := lo + w.rng.Float64()*(hi-lo)
	raw := from.Add(geom.Pt(math.Cos(theta), math.Sin(theta)).Scale(speed * w.cfg.LegTime))
	to := reflectInto(raw, w.cfg.Region)
	return leg{t0: t0, t1: t0 + w.cfg.LegTime, from: from, to: to}
}

// reflectInto mirrors p across region boundaries until it falls inside,
// implementing a billiard reflection of the leg endpoint.
func reflectInto(p geom.Point, r Region) geom.Point {
	reflect1 := func(x, lim float64) float64 {
		if lim <= 0 {
			return 0
		}
		period := 2 * lim
		x = math.Mod(x, period)
		if x < 0 {
			x += period
		}
		if x > lim {
			x = period - x
		}
		return x
	}
	return geom.Pt(reflect1(p.X, r.W), reflect1(p.Y, r.H))
}

// Segment implements Model: the leg covering t.
func (w *RandomWalk) Segment(t float64) Segment { return w.legs.segment(t, w.nextLeg) }

// TracePoint is one scripted waypoint: be at P at time T.
type TracePoint struct {
	T float64
	P geom.Point
}

// Trace replays a scripted trajectory, interpolating linearly between
// waypoints and holding the last position afterwards.
type Trace struct {
	pts []TracePoint
}

// NewTrace builds a trace model. Waypoints must have finite, strictly
// increasing times and there must be at least one.
func NewTrace(pts []TracePoint) (*Trace, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("mobility: trace needs at least one waypoint")
	}
	for i, p := range pts {
		if math.IsNaN(p.T) || math.IsInf(p.T, 0) {
			return nil, fmt.Errorf("mobility: trace time %v is not finite (index %d)", p.T, i)
		}
		if i > 0 && p.T <= pts[i-1].T {
			return nil, fmt.Errorf("mobility: trace times must be strictly increasing (index %d)", i)
		}
	}
	cp := make([]TracePoint, len(pts))
	copy(cp, pts)
	return &Trace{pts: cp}, nil
}

// Segment implements Model: the piece between the last waypoint before t
// and the first at or after it, found by binary search. The node stands
// at the first waypoint until its time and at the last one after it.
func (tr *Trace) Segment(t float64) Segment {
	pts := tr.pts
	i := sort.Search(len(pts), func(i int) bool { return t <= pts[i].T })
	switch i {
	case 0:
		return constant(math.Inf(-1), pts[0].T, pts[0].P)
	case len(pts):
		return constant(pts[i-1].T, math.Inf(1), pts[i-1].P)
	}
	a, b := pts[i-1], pts[i]
	return Segment{Lo: a.T, Hi: b.T, T0: a.T, T1: b.T, Hold: math.Inf(1), From: a.P, To: b.P}
}

// UniformStatic places n static nodes at uniform points of the region,
// drawn from src, returning one model per node. Used for Figure-1 style
// connectivity studies.
func UniformStatic(n int, r Region, src *rand.Rand) []Model {
	models := make([]Model, n)
	for i := range models {
		models[i] = Static{P: r.RandomPoint(src)}
	}
	return models
}

// WaypointField creates n independent waypoint models seeded from seed,
// one RNG stream per node.
func WaypointField(n int, cfg WaypointConfig, seed int64) ([]Model, error) {
	models := make([]Model, n)
	for i := range models {
		m, err := NewWaypoint(cfg, seed+int64(i)*7919)
		if err != nil {
			return nil, err
		}
		models[i] = m
	}
	return models, nil
}
