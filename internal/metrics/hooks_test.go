package metrics

import (
	"testing"

	"glr/internal/dtn"
)

func TestHooksFire(t *testing.T) {
	c := NewCollector(4)
	var createdIDs []dtn.MessageID
	var deliveredFirst, deliveredDup int
	c.SetHooks(Hooks{
		Created: func(id dtn.MessageID, at float64, dst int) {
			createdIDs = append(createdIDs, id)
			if dst != 3 || at != 1.5 {
				t.Errorf("created hook got (dst=%d, at=%v)", dst, at)
			}
		},
		Delivered: func(id dtn.MessageID, createdAt, at float64, dst, hops int, first bool) {
			if createdAt != 1.5 || dst != 3 {
				t.Errorf("delivered hook got (createdAt=%v, dst=%d)", createdAt, dst)
			}
			if first {
				deliveredFirst++
				if at != 4.0 || hops != 2 {
					t.Errorf("first delivery hook got (at=%v, hops=%d)", at, hops)
				}
			} else {
				deliveredDup++
			}
		},
	})
	id := dtn.MessageID{Src: 0, Seq: 7}
	c.Created(ranks, id, 1.5, 3)
	if !c.Delivered(ranks, id, 4.0, 2) {
		t.Error("first delivery not reported as first")
	}
	if c.Delivered(ranks, id, 5.0, 4) {
		t.Error("duplicate reported as first")
	}
	if len(createdIDs) != 1 || createdIDs[0] != id {
		t.Errorf("created hook ids %v", createdIDs)
	}
	if deliveredFirst != 1 || deliveredDup != 1 {
		t.Errorf("delivered hook fired first=%d dup=%d, want 1/1", deliveredFirst, deliveredDup)
	}
}

func TestSnapshotTracksReport(t *testing.T) {
	c := NewCollector(2)
	a := dtn.MessageID{Src: 0, Seq: 0}
	b := dtn.MessageID{Src: 1, Seq: 0}
	c.Created(ranks, a, 1, 1)
	c.Created(ranks, b, 2, 0)
	c.Delivered(ranks, a, 3, 1)
	c.CountControlFrame()
	c.CountDataFrame()
	c.CountAck()

	snap := c.Snapshot()
	if snap.Generated != 2 || snap.Delivered != 1 || snap.Duplicates != 0 {
		t.Errorf("snapshot counters %+v", snap)
	}
	if snap.LatencySum != 2 {
		t.Errorf("latency sum %v, want 2", snap.LatencySum)
	}
	if snap.ControlFrames != 1 || snap.DataFrames != 1 || snap.Acks != 1 {
		t.Errorf("frame counters %+v", snap)
	}

	c.Delivered(ranks, b, 6, 3)
	c.Delivered(ranks, b, 7, 4) // duplicate
	snap = c.Snapshot()
	if snap.Delivered != 2 || snap.Duplicates != 1 {
		t.Errorf("snapshot after dup %+v", snap)
	}
	if snap.LatencySum != 6 {
		t.Errorf("latency sum %v, want 6", snap.LatencySum)
	}

	rep := c.Report()
	wantAvg := snap.LatencySum / float64(snap.Delivered)
	if rep.AvgLatency != wantAvg {
		t.Errorf("report latency %v, snapshot-derived %v", rep.AvgLatency, wantAvg)
	}
	if rep.Generated != snap.Generated || rep.Delivered != snap.Delivered {
		t.Errorf("report/snapshot mismatch: %+v vs %+v", rep, snap)
	}
}

func TestNoHooksIsSafe(t *testing.T) {
	c := NewCollector(1)
	id := dtn.MessageID{Src: 0, Seq: 0}
	c.Created(ranks, id, 0, 0)
	c.Delivered(ranks, id, 1, 1)
	c.Delivered(ranks, id, 2, 2)
	if got := c.Snapshot().Duplicates; got != 1 {
		t.Errorf("duplicates %d, want 1", got)
	}
}
