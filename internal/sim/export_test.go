package sim

import (
	"math"

	"glr/internal/dtn"
	"glr/internal/geom"
)

// PoisonAdverts hands every advertised list a node's ring would reuse to
// f, overwritten with poisonList, and makes the ring take a fresh array
// instead (see advRing). f counts the lists; a run over it reads a list
// after its slot came round only by reading poison.
func (w *World) PoisonAdverts(f func()) {
	w.poisonAdv = func(adv []dtn.NeighborNeighbor) {
		f()
		poisonList(adv)
	}
}

// poisonList overwrites adv with advertised neighbors no hello carries:
// id -1 at a NaN position.
func poisonList(adv []dtn.NeighborNeighbor) {
	nan := math.NaN()
	for i := range adv {
		adv[i] = dtn.NeighborNeighbor{ID: -1, Pos: geom.Point{X: nan, Y: nan}}
	}
}
