package core

import (
	"math"

	"glr/internal/dtn"
	"glr/internal/geom"
	"glr/internal/ldt"
)

// poisonPool is a boxPool that never reuses a message box or a msgState:
// every one it is handed back is overwritten with values no live copy
// can hold and then dropped. A run over it reads a released box only by
// reading poison, so its reports differ from a run over the reusing pool
// wherever a box is used after release.
type poisonPool struct {
	boxPool
	msgs, states int // boxes released so far
}

// newPoisonPool returns an empty poisonPool.
func newPoisonPool() *poisonPool {
	p := &poisonPool{}
	p.poison = func(m *dtn.Message, st *msgState) {
		nan := math.NaN()
		nanPt := geom.Point{X: nan, Y: nan}
		if m != nil {
			p.msgs++
			*m = dtn.Message{
				ID:          dtn.MessageID{Src: -1, Seq: -1},
				Dst:         -1,
				Created:     nan,
				PayloadBits: -1,
				Hops:        -1,
				Flags:       0xff,
				DstLoc:      nanPt,
				DstLocTime:  nan,
				DstLocKnown: true,
			}
		}
		if st != nil {
			p.states++
			*st = msgState{
				pending:     0xff,
				hasPending:  true,
				face:        ldt.FaceState{Active: true, EntryPos: nanPt, EntryDist: nan, CrossDist: nan, FirstFrom: -1, FirstTo: -1},
				hasFace:     true,
				stuckSince:  nan,
				hasStuck:    true,
				failTopo:    math.MaxUint64,
				hasFailTopo: true,
				failAt:      nan,
				hasFailAt:   true,
				delivered:   true,
			}
		}
	}
	return p
}
