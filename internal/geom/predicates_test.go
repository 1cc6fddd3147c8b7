package geom

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

func TestOrientBasic(t *testing.T) {
	tests := []struct {
		name    string
		a, b, c Point
		sign    int
	}{
		{"ccw", Pt(0, 0), Pt(1, 0), Pt(0, 1), +1},
		{"cw", Pt(0, 0), Pt(0, 1), Pt(1, 0), -1},
		{"collinear diag", Pt(0, 0), Pt(1, 1), Pt(2, 2), 0},
		{"collinear x", Pt(0, 5), Pt(3, 5), Pt(-7, 5), 0},
		{"ccw big", Pt(-1e9, -1e9), Pt(1e9, -1e9), Pt(0, 1e9), +1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Orient(tt.a, tt.b, tt.c)
			if sign(got) != tt.sign {
				t.Errorf("Orient = %v (sign %d), want sign %d", got, sign(got), tt.sign)
			}
		})
	}
}

// TestOrientNearDegenerate exercises the exact-arithmetic fallback: the
// points are collinear up to a relative offset of one ulp, and naive
// float64 evaluation returns an incorrectly-signed value for some of them.
func TestOrientNearDegenerate(t *testing.T) {
	a := Pt(0.1, 0.1)
	b := Pt(0.2, 0.2)
	// Exactly collinear in the reals; float64 can't represent 0.3
	// exactly so this stresses the error-bound path.
	c := Pt(0.3, 0.3)
	if got := Orient(a, b, c); got != 0 {
		// 0.1, 0.2, 0.3 as float64 are NOT exactly collinear; the exact
		// predicate must still give a consistent (anti)symmetric answer.
		if sign(Orient(b, a, c)) != -sign(got) {
			t.Errorf("Orient not antisymmetric near degeneracy")
		}
	}
	// An exactly collinear triple built from representable values.
	p := Pt(1.0/8, 3.0/8)
	q := Pt(2.0/8, 6.0/8)
	r := Pt(4.0/8, 12.0/8)
	if got := Orient(p, q, r); got != 0 {
		t.Errorf("Orient of exactly collinear dyadic points = %v, want 0", got)
	}
}

func TestOrientAntisymmetryRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		a := Pt(rng.Float64(), rng.Float64())
		b := Pt(rng.Float64(), rng.Float64())
		c := Pt(rng.Float64(), rng.Float64())
		if sign(Orient(a, b, c)) != -sign(Orient(b, a, c)) {
			t.Fatalf("Orient(a,b,c) and Orient(b,a,c) must have opposite signs")
		}
		if sign(Orient(a, b, c)) != sign(Orient(b, c, a)) {
			t.Fatalf("Orient must be invariant under cyclic rotation")
		}
	}
}

func TestInCircleBasic(t *testing.T) {
	// Unit circle through (1,0), (0,1), (-1,0) — CCW order.
	a, b, c := Pt(1, 0), Pt(0, 1), Pt(-1, 0)
	tests := []struct {
		name string
		d    Point
		sign int
	}{
		{"center inside", Pt(0, 0), +1},
		{"far outside", Pt(5, 5), -1},
		{"on circle", Pt(0, -1), 0},
		{"just inside", Pt(0, 0.999999), +1},
		{"just outside", Pt(0, 1.000001), -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := InCircle(a, b, c, tt.d)
			if sign(got) != tt.sign {
				t.Errorf("InCircle = %v (sign %d), want sign %d", got, sign(got), tt.sign)
			}
		})
	}
}

func TestInCircleOrientationFlip(t *testing.T) {
	// Reversing the triangle orientation must flip the in-circle sign.
	a, b, c := Pt(1, 0), Pt(0, 1), Pt(-1, 0)
	d := Pt(0.1, -0.1)
	if sign(InCircle(a, b, c, d)) != -sign(InCircle(a, c, b, d)) {
		t.Error("InCircle sign must flip when triangle orientation flips")
	}
}

func TestInCircleMatchesCircumcenterRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		pts := randomPoints(rng, 4, 100, 100)
		a, b, c, d := pts[0], pts[1], pts[2], pts[3]
		if Orient(a, b, c) <= 0 {
			b, c = c, b
		}
		if Orient(a, b, c) == 0 {
			continue
		}
		ctr, ok := circumcenter(a, b, c)
		if !ok {
			continue
		}
		r := ctr.Dist(a)
		dd := ctr.Dist(d)
		// Skip numerically marginal cases; the predicate is exact but the
		// reference computation here is not.
		if absf(dd-r) < 1e-9*r {
			continue
		}
		want := +1
		if dd > r {
			want = -1
		}
		if got := sign(InCircle(a, b, c, d)); got != want {
			t.Fatalf("InCircle disagrees with circumcenter distance: got %d want %d", got, want)
		}
	}
}

// ratDet returns the sign of the orientation (d == nil) or in-circle
// determinant over exact rationals: the oracle for the scaled-integer
// exact paths.
func ratDet(a, b, c Point, d *Point) int {
	q := func(f float64) *big.Rat { return new(big.Rat).SetFloat64(f) }
	sub := func(x, y float64) *big.Rat { return new(big.Rat).Sub(q(x), q(y)) }
	minor := func(px, py, qx, qy *big.Rat) *big.Rat {
		l := new(big.Rat).Mul(px, qy)
		return l.Sub(l, new(big.Rat).Mul(qx, py))
	}
	if d == nil {
		return minor(sub(a.X, c.X), sub(a.Y, c.Y), sub(b.X, c.X), sub(b.Y, c.Y)).Sign()
	}
	lift := func(x, y *big.Rat) *big.Rat {
		xx := new(big.Rat).Mul(x, x)
		return xx.Add(xx, new(big.Rat).Mul(y, y))
	}
	adx, ady := sub(a.X, d.X), sub(a.Y, d.Y)
	bdx, bdy := sub(b.X, d.X), sub(b.Y, d.Y)
	cdx, cdy := sub(c.X, d.X), sub(c.Y, d.Y)
	det := new(big.Rat).Mul(lift(adx, ady), minor(bdx, bdy, cdx, cdy))
	det.Add(det, new(big.Rat).Mul(lift(bdx, bdy), minor(cdx, cdy, adx, ady)))
	det.Add(det, new(big.Rat).Mul(lift(cdx, cdy), minor(adx, ady, bdx, bdy)))
	return det.Sign()
}

// TestExactPredicatesMatchRational: the scaled-integer exact paths agree
// with rational arithmetic on ties, near-ties, signed zeros, subnormals
// and coordinates hundreds of binary orders of magnitude apart.
func TestExactPredicatesMatchRational(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	special := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 0.3, 3, 4, 5, 1e-300, 5e-324, -2.5e-310, 1e300, -1e280, 1 << 60}
	coord := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return special[rng.Intn(len(special))]
		case 1:
			return float64(rng.Intn(9) - 4)
		}
		return math.Ldexp(rng.Float64()-0.5, rng.Intn(200)-100)
	}
	pt := func() Point { return Pt(coord(), coord()) }
	for i := 0; i < 3000; i++ {
		a, b, c, d := pt(), pt(), pt(), pt()
		if got, want := sign(orientExact(a, b, c)), ratDet(a, b, c, nil); got != want {
			t.Fatalf("orientExact(%v, %v, %v) sign %d, rational %d", a, b, c, got, want)
		}
		if got, want := sign(inCircleExact(a, b, c, d)), ratDet(a, b, c, &d); got != want {
			t.Fatalf("inCircleExact(%v, %v, %v, %v) sign %d, rational %d", a, b, c, d, got, want)
		}
	}
}

func sign(x float64) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
