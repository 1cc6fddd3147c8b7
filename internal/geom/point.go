// Package geom provides the computational-geometry substrate for the GLR
// reproduction: points and vectors, robust orientation/in-circle predicates,
// convex hulls, Delaunay triangulations, and geometric graphs (unit-disk
// graphs and general adjacency structures with k-hop queries).
//
// All coordinates are float64 metres. Predicates fall back to exact
// rational arithmetic (math/big) when the floating-point computation is too
// close to zero to be trusted, so the Delaunay construction is robust for
// any float64 input, including adversarial cases from property-based tests.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane. It doubles as a 2-vector.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Cross returns the z-component of the cross product p × q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q. It is exact
// enough for comparisons and avoids the sqrt.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// AngleTo returns the polar angle of the vector from p to q.
func (p Point) AngleTo(q Point) float64 { return math.Atan2(q.Y-p.Y, q.X-p.X) }

// Lerp returns the point p + t·(q−p); t=0 gives p, t=1 gives q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + t*(q.X-p.X), p.Y + t*(q.Y-p.Y)}
}

// Eq reports whether p and q have identical coordinates.
func (p Point) Eq(q Point) bool { return p.X == q.X && p.Y == q.Y }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f,%.3f)", p.X, p.Y) }

// Midpoint returns the midpoint of segment pq.
func Midpoint(p, q Point) Point { return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2} }

// Circumcenter returns the center of the circle through a, b, c and true,
// or the zero Point and false when the three points are collinear.
func Circumcenter(a, b, c Point) (Point, bool) {
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

// SegmentsProperlyIntersect reports whether open segments ab and cd cross at
// a single interior point. Shared endpoints and collinear overlap do not
// count as proper intersections; this is the notion used by planarity tests.
func SegmentsProperlyIntersect(a, b, c, d Point) bool {
	o1 := Orient(a, b, c)
	o2 := Orient(a, b, d)
	o3 := Orient(c, d, a)
	o4 := Orient(c, d, b)
	return ((o1 > 0 && o2 < 0) || (o1 < 0 && o2 > 0)) &&
		((o3 > 0 && o4 < 0) || (o3 < 0 && o4 > 0))
}

// PointOnSegment reports whether p lies on the closed segment ab.
func PointOnSegment(p, a, b Point) bool {
	if Orient(a, b, p) != 0 {
		return false
	}
	return math.Min(a.X, b.X) <= p.X && p.X <= math.Max(a.X, b.X) &&
		math.Min(a.Y, b.Y) <= p.Y && p.Y <= math.Max(a.Y, b.Y)
}
