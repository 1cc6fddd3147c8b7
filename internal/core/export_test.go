package core

import (
	"math"

	"glr/internal/dtn"
	"glr/internal/geom"
	"glr/internal/ldt"
)

// poisonPool is a boxPool that never reuses a box: every data frame,
// ack, message box and msgState it is handed back is overwritten with
// values no live one can hold and then dropped. A run over it reads a
// released box only by reading poison, so its reports differ from a run
// over the reusing pool wherever a box is used after release.
type poisonPool struct {
	boxPool
	released struct{ frames, acks, msgs, states int }
}

// poisonedMessage is what a released message box, or the copy in a
// released data frame, is overwritten with.
func poisonedMessage() dtn.Message {
	nan := math.NaN()
	return dtn.Message{
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

// newPoisonPool returns an empty poisonPool.
func newPoisonPool() *poisonPool {
	p := &poisonPool{}
	nan := math.NaN()
	nanPt := geom.Point{X: nan, Y: nan}
	face := ldt.FaceState{Active: true, EntryPos: nanPt, EntryDist: nan, CrossDist: nan, FirstFrom: -1, FirstTo: -1, HavePrev: true, PrevPos: nanPt}
	p.frames.Poison = func(f *dataFrame) {
		p.released.frames++
		*f = dataFrame{Msg: poisonedMessage(), Face: face, SenderPos: nanPt, SentAt: nan}
	}
	p.acks.Poison = func(a *ackFrame) {
		p.released.acks++
		*a = ackFrame{
			ID:         dtn.MessageID{Src: -1, Seq: -1},
			Dst:        -1,
			Flags:      0xff,
			SenderPos:  nanPt,
			DstLoc:     nanPt,
			DstLocTime: nan,
			DstKnown:   true,
		}
	}
	p.msgs.Poison = func(m *dtn.Message) {
		p.released.msgs++
		*m = poisonedMessage()
	}
	p.states.Poison = func(st *msgState) {
		p.released.states++
		*st = msgState{
			pending:     0xff,
			hasPending:  true,
			face:        face,
			hasFace:     true,
			stuckSince:  nan,
			hasStuck:    true,
			failTopo:    math.MaxUint64,
			hasFailTopo: true,
			failAt:      nan,
			hasFailAt:   true,
		}
	}
	return p
}
