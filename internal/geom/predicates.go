package geom

import (
	"math"
	"math/big"
)

// Robust geometric predicates.
//
// The fast path evaluates the predicate determinant in float64 and accepts
// the result when its magnitude exceeds a conservative forward error bound
// (constants following Shewchuk, "Adaptive Precision Floating-Point
// Arithmetic and Fast Robust Geometric Predicates"). When the result is too
// close to zero to be trusted, we recompute exactly with math/big integers:
// every finite float64 is an integer times a power of two, so scaling all
// inputs by the smallest such power makes them integers (scaleExact), and
// the determinant's sign is unchanged by the positive scale.

const (
	// ccwErrBound bounds the rounding error of the 2x2 orientation
	// determinant: 3u + 16u² with u = 2^-53, times the magnitude sum.
	ccwErrBound = 3.3306690738754716e-16
	// iccErrBound is the corresponding first-order bound for the 4x4
	// in-circle determinant: (10 + 96u)u.
	iccErrBound = 1.1102230246251577e-15
)

// Orient returns a value whose sign classifies the turn a→b→c:
// positive when counterclockwise, negative when clockwise, and exactly zero
// when the three points are collinear. The magnitude is twice the signed
// triangle area (meaningful only on the fast path).
func Orient(a, b, c Point) float64 {
	detl := (a.X - c.X) * (b.Y - c.Y)
	detr := (a.Y - c.Y) * (b.X - c.X)
	det := detl - detr
	var detsum float64
	switch {
	case detl > 0:
		if detr <= 0 {
			return det
		}
		detsum = detl + detr
	case detl < 0:
		if detr >= 0 {
			return det
		}
		detsum = -detl - detr
	default:
		return det
	}
	if det >= ccwErrBound*detsum || -det >= ccwErrBound*detsum {
		return det
	}
	return orientExact(a, b, c)
}

func orientExact(a, b, c Point) float64 {
	var v [6]big.Int
	scaleExact(v[:], a.X, a.Y, b.X, b.Y, c.X, c.Y)
	var acx, bcy, acy, bcx big.Int
	acx.Sub(&v[0], &v[4])
	bcy.Sub(&v[3], &v[5])
	acy.Sub(&v[1], &v[5])
	bcx.Sub(&v[2], &v[4])
	return float64(minorExact(&acx, &acy, &bcx, &bcy).Sign())
}

// InCircle returns a value whose sign reports the position of d relative to
// the circle through a, b, c (which must be in counterclockwise order):
// positive when d is strictly inside, negative when strictly outside, zero
// when on the circle. If a, b, c are clockwise the sign is flipped.
func InCircle(a, b, c, d Point) float64 {
	adx := a.X - d.X
	ady := a.Y - d.Y
	bdx := b.X - d.X
	bdy := b.Y - d.Y
	cdx := c.X - d.X
	cdy := c.Y - d.Y

	bdxcdy := bdx * cdy
	cdxbdy := cdx * bdy
	alift := adx*adx + ady*ady

	cdxady := cdx * ady
	adxcdy := adx * cdy
	blift := bdx*bdx + bdy*bdy

	adxbdy := adx * bdy
	bdxady := bdx * ady
	clift := cdx*cdx + cdy*cdy

	det := alift*(bdxcdy-cdxbdy) + blift*(cdxady-adxcdy) + clift*(adxbdy-bdxady)

	permanent := (abs(bdxcdy)+abs(cdxbdy))*alift +
		(abs(cdxady)+abs(adxcdy))*blift +
		(abs(adxbdy)+abs(bdxady))*clift
	errbound := iccErrBound * permanent
	if det > errbound || -det > errbound {
		return det
	}
	return inCircleExact(a, b, c, d)
}

func inCircleExact(a, b, c, d Point) float64 {
	var v [8]big.Int
	scaleExact(v[:], a.X, a.Y, b.X, b.Y, c.X, c.Y, d.X, d.Y)
	var adx, ady, bdx, bdy, cdx, cdy big.Int
	adx.Sub(&v[0], &v[6])
	ady.Sub(&v[1], &v[7])
	bdx.Sub(&v[2], &v[6])
	bdy.Sub(&v[3], &v[7])
	cdx.Sub(&v[4], &v[6])
	cdy.Sub(&v[5], &v[7])

	lift := func(x, y *big.Int) *big.Int {
		var xx, yy big.Int
		xx.Mul(x, x)
		yy.Mul(y, y)
		return xx.Add(&xx, &yy)
	}
	var det, t big.Int
	det.Mul(lift(&adx, &ady), minorExact(&bdx, &bdy, &cdx, &cdy))
	t.Mul(lift(&bdx, &bdy), minorExact(&cdx, &cdy, &adx, &ady))
	det.Add(&det, &t)
	t.Mul(lift(&cdx, &cdy), minorExact(&adx, &ady, &bdx, &bdy))
	det.Add(&det, &t)
	return float64(det.Sign())
}

// minorExact returns px·qy − qx·py.
func minorExact(px, py, qx, qy *big.Int) *big.Int {
	var l, r big.Int
	l.Mul(px, qy)
	r.Mul(qx, py)
	return l.Sub(&l, &r)
}

// scaleExact sets out[i] = vals[i]·2^s for the one s that makes every
// finite value an integer: each value's 53-bit mantissa, shifted by its
// exponent's distance above the smallest exponent among the nonzero
// values.
func scaleExact(out []big.Int, vals ...float64) {
	const mantBits = 53
	minExp := math.MaxInt
	for _, v := range vals {
		if v != 0 {
			_, e := math.Frexp(v)
			minExp = min(minExp, e-mantBits)
		}
	}
	for i, v := range vals {
		frac, e := math.Frexp(v)
		out[i].SetInt64(int64(math.Ldexp(frac, mantBits)))
		if v != 0 {
			out[i].Lsh(&out[i], uint(e-mantBits-minExp))
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
