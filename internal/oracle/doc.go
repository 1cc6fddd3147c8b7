// Package oracle holds the reference implementations that tests compare
// the production code against: a Delaunay triangulation, a convex hull,
// and the from-scratch LDTG, Gabriel and unit-disk answers to an
// ldt.Maintainer query. Nothing the simulator runs uses them, so only
// _test.go files may import this package; cmd/deadcheck fails on any
// other import.
package oracle
