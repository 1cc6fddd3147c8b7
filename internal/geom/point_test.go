package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	tests := []struct {
		name string
		got  Point
		want Point
	}{
		{"add", Pt(1, 2).Add(Pt(3, -4)), Pt(4, -2)},
		{"sub", Pt(1, 2).Sub(Pt(3, -4)), Pt(-2, 6)},
		{"scale", Pt(1.5, -2).Scale(2), Pt(3, -4)},
		{"lerp mid", Pt(0, 0).Lerp(Pt(10, 4), 0.5), Pt(5, 2)},
		{"lerp zero", Pt(7, 8).Lerp(Pt(10, 4), 0), Pt(7, 8)},
		{"lerp one", Pt(7, 8).Lerp(Pt(10, 4), 1), Pt(10, 4)},
		{"midpoint", Midpoint(Pt(0, 0), Pt(4, 6)), Pt(2, 3)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if !tt.got.Eq(tt.want) {
				t.Errorf("got %v, want %v", tt.got, tt.want)
			}
		})
	}
}

func TestDistAndNorm(t *testing.T) {
	if got := Pt(0, 0).Dist(Pt(3, 4)); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := Pt(0, 0).Dist2(Pt(3, 4)); got != 25 {
		t.Errorf("Dist2 = %v, want 25", got)
	}
}

func TestDotCross(t *testing.T) {
	a, b := Pt(2, 3), Pt(-1, 4)
	if got := a.Cross(b); got != 11 {
		t.Errorf("Cross = %v, want 11", got)
	}
}

func TestAngle(t *testing.T) {
	if got := Pt(0, 0).AngleTo(Pt(-1, 0)); math.Abs(got-math.Pi) > 1e-15 {
		t.Errorf("AngleTo(-x) = %v, want π", got)
	}
}

func TestCircumcenter(t *testing.T) {
	c, ok := circumcenter(Pt(0, 0), Pt(2, 0), Pt(1, 1))
	if !ok {
		t.Fatal("expected circumcenter to exist")
	}
	want := Pt(1, 0)
	if c.Dist(want) > 1e-12 {
		t.Errorf("circumcenter = %v, want %v", c, want)
	}
	if _, ok := circumcenter(Pt(0, 0), Pt(1, 1), Pt(2, 2)); ok {
		t.Error("collinear points should have no circumcenter")
	}
}

func TestCircumcenterEquidistantProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a := Pt(rng.Float64()*100, rng.Float64()*100)
		b := Pt(rng.Float64()*100, rng.Float64()*100)
		c := Pt(rng.Float64()*100, rng.Float64()*100)
		ctr, ok := circumcenter(a, b, c)
		if !ok {
			continue
		}
		da, db, dc := ctr.Dist(a), ctr.Dist(b), ctr.Dist(c)
		if math.Abs(da-db) > 1e-6*da || math.Abs(da-dc) > 1e-6*da {
			t.Fatalf("circumcenter not equidistant: %v %v %v", da, db, dc)
		}
	}
}

func TestSegmentsProperlyIntersect(t *testing.T) {
	tests := []struct {
		name       string
		a, b, c, d Point
		want       bool
	}{
		{"crossing X", Pt(0, 0), Pt(2, 2), Pt(0, 2), Pt(2, 0), true},
		{"parallel", Pt(0, 0), Pt(2, 0), Pt(0, 1), Pt(2, 1), false},
		{"shared endpoint", Pt(0, 0), Pt(2, 2), Pt(2, 2), Pt(4, 0), false},
		{"T junction", Pt(0, 0), Pt(4, 0), Pt(2, 0), Pt(2, 3), false},
		{"disjoint", Pt(0, 0), Pt(1, 0), Pt(5, 5), Pt(6, 6), false},
		{"collinear overlap", Pt(0, 0), Pt(3, 0), Pt(1, 0), Pt(2, 0), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := SegmentsProperlyIntersect(tt.a, tt.b, tt.c, tt.d); got != tt.want {
				t.Errorf("got %v, want %v", got, tt.want)
			}
		})
	}
}

func TestPointOnSegment(t *testing.T) {
	if !PointOnSegment(Pt(1, 1), Pt(0, 0), Pt(2, 2)) {
		t.Error("midpoint should be on segment")
	}
	if !PointOnSegment(Pt(0, 0), Pt(0, 0), Pt(2, 2)) {
		t.Error("endpoint should be on segment")
	}
	if PointOnSegment(Pt(3, 3), Pt(0, 0), Pt(2, 2)) {
		t.Error("point beyond endpoint is not on segment")
	}
	if PointOnSegment(Pt(1, 0), Pt(0, 0), Pt(2, 2)) {
		t.Error("off-line point is not on segment")
	}
}

func TestDistSymmetryQuick(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsNaN(ay) || math.IsNaN(bx) || math.IsNaN(by) {
			return true
		}
		a, b := Pt(ax, ay), Pt(bx, by)
		d1, d2 := a.Dist(b), b.Dist(a)
		return d1 == d2 && (d1 >= 0 || math.IsInf(d1, 1) || math.IsNaN(d1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values:   boundedPointsValues(3, 1e6),
	}
	f := func(pts []Point) bool {
		a, b, c := pts[0], pts[1], pts[2]
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// circumcenter returns the center of the circle through a, b, c and true,
// or the zero Point and false when the three points are collinear.
func circumcenter(a, b, c Point) (Point, bool) {
	bx, by := b.X-a.X, b.Y-a.Y
	cx, cy := c.X-a.X, c.Y-a.Y
	d := 2 * (bx*cy - by*cx)
	if d == 0 {
		return Point{}, false
	}
	b2 := bx*bx + by*by
	c2 := cx*cx + cy*cy
	ux := (cy*b2 - by*c2) / d
	uy := (bx*c2 - cx*b2) / d
	return Point{a.X + ux, a.Y + uy}, true
}
