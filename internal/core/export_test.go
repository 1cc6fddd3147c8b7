package core

import (
	"math"

	"glr/internal/dtn"
	"glr/internal/geom"
	"glr/internal/ldt"
)

// poisonPool is a boxPool that never reuses a box: every data frame,
// ack and copy record it is handed back is overwritten with values no
// live one can hold and then dropped. A run over it reads a released
// box only by reading poison, so its reports differ from a run over the
// reusing pool wherever a box is used after release.
type poisonPool struct {
	boxPool
	released struct{ frames, acks, recs int }
}

// poisonedMessage is what the copy in a released record or data frame
// is overwritten with.
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

// poisonedFace is a face state no walk is in.
func poisonedFace() ldt.FaceState {
	nan := math.NaN()
	nanPt := geom.Point{X: nan, Y: nan}
	return ldt.FaceState{Active: true, EntryPos: nanPt, EntryDist: nan, CrossDist: nan, FirstFrom: -1, FirstTo: -1, HavePrev: true, PrevPos: nanPt}
}

// poisonedRec is what a released copy record is overwritten with: a
// cached copy of poisonedMessage with every routing state set to values
// no held copy's state has.
func poisonedRec() copyRec {
	nan := math.NaN()
	return copyRec{
		msg:    poisonedMessage(),
		cached: true,
		sentAt: nan,
		msgState: msgState{
			pending:     0xff,
			hasPending:  true,
			face:        poisonedFace(),
			hasFace:     true,
			stuckSince:  nan,
			hasStuck:    true,
			failTopo:    math.MaxUint64,
			hasFailTopo: true,
			failAt:      nan,
			hasFailAt:   true,
		},
	}
}

// newPoisonPool returns an empty poisonPool.
func newPoisonPool() *poisonPool {
	p := &poisonPool{}
	nan := math.NaN()
	nanPt := geom.Point{X: nan, Y: nan}
	p.frames.Poison = func(f *dataFrame) {
		p.released.frames++
		*f = dataFrame{Msg: poisonedMessage(), Face: poisonedFace(), SenderPos: nanPt, SentAt: nan}
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
	p.recs.Poison = func(r *copyRec) {
		p.released.recs++
		*r = poisonedRec()
	}
	return p
}
