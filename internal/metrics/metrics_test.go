package metrics

import (
	"math"
	"testing"

	"glr/internal/dtn"
)

func id(src, seq int) dtn.MessageID { return dtn.MessageID{Src: src, Seq: seq} }

func TestDeliveryAccounting(t *testing.T) {
	c := NewCollector(3)
	c.Created(id(0, 0), 10, 1)
	c.Created(id(0, 1), 20, 2)
	if !c.Delivered(id(0, 0), 15, 3) {
		t.Error("first delivery should report true")
	}
	if c.Delivered(id(0, 0), 16, 4) {
		t.Error("duplicate delivery should report false")
	}
	if !c.IsDelivered(id(0, 0)) || c.IsDelivered(id(0, 1)) {
		t.Error("IsDelivered wrong")
	}
	r := c.Report()
	if r.Generated != 2 || r.Delivered != 1 || r.Duplicates != 1 {
		t.Errorf("report = %+v", r)
	}
	if r.DeliveryRatio != 0.5 {
		t.Errorf("ratio = %v, want 0.5", r.DeliveryRatio)
	}
	if r.AvgLatency != 5 {
		t.Errorf("latency = %v, want 5 (first copy only)", r.AvgLatency)
	}
	if r.AvgHops != 3 {
		t.Errorf("hops = %v, want 3", r.AvgHops)
	}
}

func TestEmptyReport(t *testing.T) {
	r := NewCollector(2).Report()
	if r.DeliveryRatio != 0 || r.AvgLatency != 0 || r.Generated != 0 {
		t.Errorf("empty report = %+v", r)
	}
}

func TestPeakStorage(t *testing.T) {
	c := NewCollector(3)
	c.SampleStorage(0, 5)
	c.SampleStorage(0, 3) // below peak: ignored
	c.SampleStorage(1, 10)
	c.SampleStorage(2, 0)
	r := c.Report()
	if r.MaxPeakStorage != 10 {
		t.Errorf("MaxPeakStorage = %d, want 10", r.MaxPeakStorage)
	}
	if math.Abs(r.AvgPeakStorage-5) > 1e-12 {
		t.Errorf("AvgPeakStorage = %v, want 5", r.AvgPeakStorage)
	}
}

func TestFrameCounters(t *testing.T) {
	c := NewCollector(1)
	c.CountControlFrame()
	c.CountControlFrame()
	c.CountDataFrame()
	c.CountAck()
	r := c.Report()
	if r.ControlFrames != 2 || r.DataFrames != 1 || r.Acks != 1 {
		t.Errorf("counters = %+v", r)
	}
}

func TestDeliveredWithoutCreated(t *testing.T) {
	// Robustness: a delivery with no matching creation must not poison
	// the averages.
	c := NewCollector(1)
	c.Created(id(0, 0), 0, 0)
	c.Delivered(id(9, 9), 5, 2) // unknown creation
	c.Delivered(id(0, 0), 8, 4)
	r := c.Report()
	if r.AvgLatency != 8 || r.AvgHops != 4 {
		t.Errorf("unknown-creation delivery should be excluded from averages: %+v", r)
	}
}
