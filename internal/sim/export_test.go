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

// PoisonGenerated makes the world overwrite its generation box after
// every OnMessageGenerated call with a message no world generates (ids,
// destination and sizes -1, times NaN), and call f. A protocol that
// reads the box after the call reads poison.
func (w *World) PoisonGenerated(f func()) {
	w.poisonGen = func(m *dtn.Message) {
		f()
		nan := math.NaN()
		*m = dtn.Message{
			ID:          dtn.MessageID{Src: -1, Seq: -1},
			Dst:         -1,
			Created:     nan,
			PayloadBits: -1,
			Hops:        -1,
			Flags:       0xff,
			DstLoc:      geom.Point{X: nan, Y: nan},
			DstLocTime:  nan,
			DstLocKnown: true,
		}
	}
}
