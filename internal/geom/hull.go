package geom

import "sort"

// ConvexHull returns the indices of the convex hull of pts in
// counterclockwise order, starting from the lexicographically smallest
// point. Collinear points on the hull boundary are excluded. Inputs with
// fewer than three non-collinear points return all distinct points in
// lexicographic order.
func ConvexHull(pts []Point) []int {
	n := len(pts)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		a, b := pts[idx[i]], pts[idx[j]]
		if a.X != b.X {
			return a.X < b.X
		}
		return a.Y < b.Y
	})
	// Drop exact duplicates.
	uniq := idx[:0]
	for i, id := range idx {
		if i > 0 && pts[id].Eq(pts[uniq[len(uniq)-1]]) {
			continue
		}
		uniq = append(uniq, id)
	}
	idx = uniq
	n = len(idx)
	if n < 3 {
		out := make([]int, n)
		copy(out, idx)
		return out
	}

	hull := make([]int, 0, 2*n)
	// Lower hull.
	for _, id := range idx {
		for len(hull) >= 2 && Orient(pts[hull[len(hull)-2]], pts[hull[len(hull)-1]], pts[id]) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, id)
	}
	// Upper hull.
	lower := len(hull) + 1
	for i := n - 2; i >= 0; i-- {
		id := idx[i]
		for len(hull) >= lower && Orient(pts[hull[len(hull)-2]], pts[hull[len(hull)-1]], pts[id]) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, id)
	}
	return hull[:len(hull)-1]
}
