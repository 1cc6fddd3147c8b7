package mobility

import (
	"math"
	"math/rand"
	"testing"

	"glr/internal/geom"
	"glr/internal/rng"
)

var testRegion = Region{W: 1500, H: 300}

// pos is the production position read: the covering segment, evaluated.
func pos(m Model, t float64) geom.Point {
	s := m.Segment(t)
	return s.At(t)
}

func testWaypointConfig() WaypointConfig {
	return WaypointConfig{Region: testRegion, MinSpeed: 0, MaxSpeed: 20, Pause: 0}
}

func TestWaypointConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*WaypointConfig)
		wantErr bool
	}{
		{"valid", func(*WaypointConfig) {}, false},
		{"zero width", func(c *WaypointConfig) { c.Region.W = 0 }, true},
		{"zero height", func(c *WaypointConfig) { c.Region.H = 0 }, true},
		{"zero max speed", func(c *WaypointConfig) { c.MaxSpeed = 0 }, true},
		{"min above max", func(c *WaypointConfig) { c.MinSpeed = 30 }, true},
		{"negative pause", func(c *WaypointConfig) { c.Pause = -1 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testWaypointConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestWaypointStaysInRegion(t *testing.T) {
	w, err := NewWaypoint(testWaypointConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti <= 4000; ti++ {
		p := pos(w, float64(ti))
		if !testRegion.Contains(p) {
			t.Fatalf("position %v at t=%d outside region", p, ti)
		}
	}
}

func TestWaypointSpeedBounded(t *testing.T) {
	cfg := testWaypointConfig()
	w, err := NewWaypoint(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	const dt = 0.1
	for ti := 0; ti < 20000; ti++ {
		t0 := float64(ti) * dt
		d := pos(w, t0).Dist(pos(w, t0+dt))
		if d > cfg.MaxSpeed*dt*(1+1e-9) {
			t.Fatalf("node moved %v m in %v s — exceeds max speed %v", d, dt, cfg.MaxSpeed)
		}
	}
}

func TestWaypointDeterministicAndStable(t *testing.T) {
	w1, _ := NewWaypoint(testWaypointConfig(), 77)
	w2, _ := NewWaypoint(testWaypointConfig(), 77)
	// Query w1 monotonically, w2 in a scrambled order; trajectories must
	// be identical functions of t regardless of query pattern.
	times := []float64{10, 500, 3, 1200, 0, 999.5, 10}
	mono := make([]geom.Point, 0, len(times))
	for _, tt := range []float64{0, 3, 10, 500, 999.5, 1200} {
		mono = append(mono, pos(w1, tt))
	}
	_ = mono
	for _, tt := range times {
		p1 := pos(w1, tt)
		p2 := pos(w2, tt)
		if !p1.Eq(p2) {
			t.Fatalf("same seed diverged at t=%v: %v vs %v", tt, p1, p2)
		}
	}
}

func TestWaypointDifferentSeedsDiffer(t *testing.T) {
	w1, _ := NewWaypoint(testWaypointConfig(), 1)
	w2, _ := NewWaypoint(testWaypointConfig(), 2)
	same := true
	for _, tt := range []float64{0, 100, 200} {
		if !pos(w1, tt).Eq(pos(w2, tt)) {
			same = false
		}
	}
	if same {
		t.Error("different seeds should produce different trajectories")
	}
}

func TestWaypointPause(t *testing.T) {
	cfg := testWaypointConfig()
	cfg.Pause = 50
	cfg.MinSpeed = 19
	cfg.MaxSpeed = 20
	w, err := NewWaypoint(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	// At some instant the node must be pausing: scan pairs and confirm at
	// least one long still period exists.
	still := 0
	for ti := 0; ti < 5000; ti++ {
		a := pos(w, float64(ti))
		b := pos(w, float64(ti)+1)
		if a.Dist(b) == 0 {
			still++
		}
	}
	if still == 0 {
		t.Error("with 50s pauses the node should be observed standing still")
	}
}

func TestWaypointNegativeTimeClamped(t *testing.T) {
	w, _ := NewWaypoint(testWaypointConfig(), 4)
	if !pos(w, -5).Eq(pos(w, 0)) {
		t.Error("negative time should clamp to start position")
	}
}

func TestStatic(t *testing.T) {
	s := Static{P: geom.Pt(5, 7)}
	for _, tt := range []float64{0, 1, 1e6} {
		if !pos(s, tt).Eq(geom.Pt(5, 7)) {
			t.Fatal("static node moved")
		}
	}
}

func TestRandomWalkStaysInRegion(t *testing.T) {
	cfg := RandomWalkConfig{Region: Region{W: 100, H: 100}, MinSpeed: 1, MaxSpeed: 10, LegTime: 5}
	w, err := NewRandomWalk(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti <= 2000; ti++ {
		p := pos(w, float64(ti)*0.5)
		if !cfg.Region.Contains(p) {
			t.Fatalf("random walk escaped region: %v", p)
		}
	}
}

func TestRandomWalkValidation(t *testing.T) {
	valid := RandomWalkConfig{Region: Region{W: 10, H: 10}, MaxSpeed: 5, LegTime: 1}
	if _, err := NewRandomWalk(valid, 1); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []RandomWalkConfig{
		{Region: Region{W: 0, H: 10}, MaxSpeed: 5, LegTime: 1},
		{Region: Region{W: 10, H: 10}, MaxSpeed: 0, LegTime: 1},
		{Region: Region{W: 10, H: 10}, MaxSpeed: 5, LegTime: 0},
		{Region: Region{W: 10, H: 10}, MinSpeed: 9, MaxSpeed: 5, LegTime: 1},
	}
	for i, cfg := range bad {
		if _, err := NewRandomWalk(cfg, 1); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestReflectInto(t *testing.T) {
	r := Region{W: 10, H: 10}
	tests := []struct {
		in   geom.Point
		want geom.Point
	}{
		{geom.Pt(5, 5), geom.Pt(5, 5)},
		{geom.Pt(12, 5), geom.Pt(8, 5)},  // past right wall: bounce back
		{geom.Pt(-3, 5), geom.Pt(3, 5)},  // past left wall
		{geom.Pt(5, 13), geom.Pt(5, 7)},  // past top
		{geom.Pt(25, 5), geom.Pt(5, 5)},  // full period: back to start
		{geom.Pt(5, -14), geom.Pt(5, 6)}, // multiple bounces
	}
	for _, tt := range tests {
		got := reflectInto(tt.in, r)
		if got.Dist(tt.want) > 1e-9 {
			t.Errorf("reflectInto(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestTrace(t *testing.T) {
	tr, err := NewTrace([]TracePoint{
		{T: 0, P: geom.Pt(0, 0)},
		{T: 10, P: geom.Pt(10, 0)},
		{T: 20, P: geom.Pt(10, 20)},
	})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		at   float64
		want geom.Point
	}{
		{-1, geom.Pt(0, 0)},
		{0, geom.Pt(0, 0)},
		{5, geom.Pt(5, 0)},
		{10, geom.Pt(10, 0)},
		{15, geom.Pt(10, 10)},
		{20, geom.Pt(10, 20)},
		{99, geom.Pt(10, 20)},
	}
	for _, tt := range tests {
		if got := pos(tr, tt.at); got.Dist(tt.want) > 1e-9 {
			t.Errorf("position at %v = %v, want %v", tt.at, got, tt.want)
		}
	}
}

func TestTraceValidation(t *testing.T) {
	if _, err := NewTrace(nil); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := NewTrace([]TracePoint{{T: 0}, {T: 0}}); err == nil {
		t.Error("non-increasing trace accepted")
	}
	// Non-finite times: a NaN passes the ordering check, and a -Inf
	// waypoint makes the trace interpolate Inf/Inf into a NaN position.
	for _, pts := range [][]TracePoint{
		{{T: math.NaN()}},
		{{T: 0}, {T: math.NaN()}},
		{{T: math.NaN()}, {T: 1}},
		{{T: math.Inf(-1)}, {T: 0}},
		{{T: 0}, {T: math.Inf(1)}},
		{{T: math.Inf(1)}},
	} {
		if _, err := NewTrace(pts); err == nil {
			t.Errorf("trace with times %v accepted", pts)
		}
	}
}

func TestUniformStatic(t *testing.T) {
	models := UniformStatic(50, testRegion, rng.New(6))
	if len(models) != 50 {
		t.Fatalf("got %d models", len(models))
	}
	for _, m := range models {
		if !testRegion.Contains(pos(m, 0)) {
			t.Fatal("static node outside region")
		}
	}
}

func TestWaypointField(t *testing.T) {
	models, err := WaypointField(10, testWaypointConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 10 {
		t.Fatalf("got %d models", len(models))
	}
	// Node trajectories must be mutually distinct.
	distinct := false
	for i := 1; i < len(models); i++ {
		if !pos(models[0], 100).Eq(pos(models[i], 100)) {
			distinct = true
		}
	}
	if !distinct {
		t.Error("waypoint field nodes share a trajectory")
	}
	// Reproducibility across constructions.
	again, _ := WaypointField(10, testWaypointConfig(), 42)
	for i := range models {
		if !pos(models[i], 500).Eq(pos(again[i], 500)) {
			t.Fatal("field not reproducible for identical seed")
		}
	}
}

func TestWaypointCoversRegion(t *testing.T) {
	// Over a long horizon the node should visit all four quadrants — a
	// weak ergodicity check guarding against stuck trajectories.
	w, _ := NewWaypoint(testWaypointConfig(), 9)
	var q [4]bool
	for ti := 0; ti < 40000; ti++ {
		p := pos(w, float64(ti))
		qi := 0
		if p.X > testRegion.W/2 {
			qi++
		}
		if p.Y > testRegion.H/2 {
			qi += 2
		}
		q[qi] = true
	}
	for i, visited := range q {
		if !visited {
			t.Errorf("quadrant %d never visited", i)
		}
	}
}

func TestRegionHelpers(t *testing.T) {
	r := Region{W: 4, H: 2}
	if r.Area() != 8 {
		t.Errorf("Area = %v, want 8", r.Area())
	}
	if !r.Contains(geom.Pt(0, 0)) || !r.Contains(geom.Pt(4, 2)) {
		t.Error("region should contain its corners")
	}
	if r.Contains(geom.Pt(4.1, 1)) || r.Contains(geom.Pt(-0.1, 1)) {
		t.Error("region should exclude outside points")
	}
	stream := rng.New(7)
	for i := 0; i < 100; i++ {
		if p := r.RandomPoint(stream); !r.Contains(p) {
			t.Fatalf("RandomPoint outside region: %v", p)
		}
	}
}

func TestWaypointLipschitzContinuity(t *testing.T) {
	// |pos(t+h) − pos(t)| ≤ maxSpeed·h for all t, h — continuity of the
	// analytic trajectory across leg boundaries.
	w, _ := NewWaypoint(testWaypointConfig(), 10)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		t0 := rng.Float64() * 3800
		h := rng.Float64() * 2
		d := pos(w, t0).Dist(pos(w, t0+h))
		if d > 20*h+1e-9 {
			t.Fatalf("discontinuity: moved %v in %v s at t=%v", d, h, t0)
		}
	}
}

func BenchmarkWaypointSegment(b *testing.B) {
	w, _ := NewWaypoint(testWaypointConfig(), 12)
	w.Segment(3800) // pre-generate legs
	rng := rand.New(rand.NewSource(13))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Segment(rng.Float64() * 3800)
	}
}

func TestWaypointLegInvariants(t *testing.T) {
	w, _ := NewWaypoint(testWaypointConfig(), 14)
	w.Segment(2000)
	for i, l := range w.legs {
		if l.t1 < l.t0 {
			t.Fatalf("leg %d has negative duration", i)
		}
		if i > 0 {
			prev := w.legs[i-1]
			if math.Abs(prev.end()-l.t0) > 1e-9 {
				t.Fatalf("gap between legs %d and %d", i-1, i)
			}
			if !prev.to.Eq(l.from) {
				t.Fatalf("leg %d does not start where %d ended", i, i-1)
			}
		}
	}
}
