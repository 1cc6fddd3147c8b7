package metrics

import (
	"math"
	"testing"

	"glr/internal/dtn"
	"glr/internal/stats"
)

func id(src, seq int) dtn.MessageID { return dtn.MessageID{Src: src, Seq: seq} }

// ranks ranks ten messages from each of ten sources, the ids these
// tests draw.
var ranks = dtn.NewMessageRanks([]int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10})

func TestDeliveryAccounting(t *testing.T) {
	c := NewCollector(3)
	c.Created(ranks, id(0, 0), 10, 1)
	c.Created(ranks, id(0, 1), 20, 2)
	if !c.Delivered(ranks, id(0, 0), 15, 3) {
		t.Error("first delivery should report true")
	}
	if c.Delivered(ranks, id(0, 0), 16, 4) {
		t.Error("duplicate delivery should report false")
	}
	if !c.msgs[ranks.Rank(id(0, 0))].delivered || c.msgs[ranks.Rank(id(0, 1))].delivered {
		t.Error("delivered set wrong")
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
	c.Created(ranks, id(0, 0), 0, 0)
	c.Delivered(ranks, id(9, 9), 5, 2) // unknown creation
	c.Delivered(ranks, id(0, 0), 8, 4)
	r := c.Report()
	if r.AvgLatency != 8 || r.AvgHops != 4 {
		t.Errorf("unknown-creation delivery should be excluded from averages: %+v", r)
	}
}

// TestFold: the one replication fold gives zero for no reports, N = 1
// and zero half-widths for one, and for several exactly the 90%
// Student-t interval of each metric's column, with Frames the sum of
// control, data and ack frames.
func TestFold(t *testing.T) {
	if got := Fold(nil); got != (Agg{}) {
		t.Errorf("empty fold = %+v, want zero", got)
	}
	one := Report{DeliveryRatio: 0.5, AvgLatency: 12, AvgHops: 3, MaxPeakStorage: 7, AvgPeakStorage: 2.5,
		Duplicates: 4, ControlFrames: 10, DataFrames: 5, Acks: 1}
	got := Fold([]Report{one})
	for name, ci := range map[string]stats.MeanCI{
		"DeliveryRatio": got.DeliveryRatio, "AvgLatency": got.AvgLatency, "AvgHops": got.AvgHops,
		"AvgPeakStorage": got.AvgPeakStorage, "MaxPeakStorage": got.MaxPeakStorage,
		"Duplicates": got.Duplicates, "Frames": got.Frames,
	} {
		if ci.N != 1 || ci.HalfWidth != 0 {
			t.Errorf("one report: %s = %+v, want N 1 and no half-width", name, ci)
		}
	}
	if got.Frames.Mean != 16 || got.AvgLatency.Mean != 12 {
		t.Errorf("one report: frames %v latency %v, want 16 and 12", got.Frames.Mean, got.AvgLatency.Mean)
	}

	reports := []Report{
		one,
		{DeliveryRatio: 0.9, AvgLatency: 30, AvgHops: 5, MaxPeakStorage: 11, AvgPeakStorage: 4,
			Duplicates: 0, ControlFrames: 20, DataFrames: 8, Acks: 3},
		{DeliveryRatio: 0.7, AvgLatency: 18, AvgHops: 4.5, MaxPeakStorage: 9, AvgPeakStorage: 3.25,
			Duplicates: 2, ControlFrames: 14, DataFrames: 6, Acks: 0},
	}
	column := func(f func(Report) float64) stats.MeanCI {
		xs := make([]float64, len(reports))
		for i, r := range reports {
			xs[i] = f(r)
		}
		return stats.ConfidenceInterval(xs, 0.90)
	}
	want := Agg{
		DeliveryRatio:  column(func(r Report) float64 { return r.DeliveryRatio }),
		AvgLatency:     column(func(r Report) float64 { return r.AvgLatency }),
		AvgHops:        column(func(r Report) float64 { return r.AvgHops }),
		AvgPeakStorage: column(func(r Report) float64 { return r.AvgPeakStorage }),
		MaxPeakStorage: column(func(r Report) float64 { return float64(r.MaxPeakStorage) }),
		Duplicates:     column(func(r Report) float64 { return float64(r.Duplicates) }),
		Frames:         stats.ConfidenceInterval([]float64{16, 31, 20}, 0.90),
	}
	if got := Fold(reports); got != want {
		t.Errorf("fold of three reports:\n got  %+v\n want %+v", got, want)
	}
	if want.Frames.N != 3 || want.Frames.HalfWidth == 0 {
		t.Errorf("three-report frames interval %+v is degenerate", want.Frames)
	}
}

// The collector sizes its per-rank records at the first Created, not
// when it is built, and Report averages latencies in rank order
// whatever the delivery order: the running mean of 0.1, 0.1 and 0.2
// rounds differently in ascending and descending order.
func TestReportSumsInRankOrder(t *testing.T) {
	latency := []float64{0.1, 0.1, 0.2}
	report := func(order []int) Report {
		c := NewCollector(1)
		if c.msgs != nil {
			t.Fatal("NewCollector allocated per-message records")
		}
		for seq := range latency {
			c.Created(ranks, id(0, seq), 0, 1)
		}
		if len(c.msgs) != ranks.Len() {
			t.Fatalf("%d records for %d ranks", len(c.msgs), ranks.Len())
		}
		for _, seq := range order {
			c.Delivered(ranks, id(0, seq), latency[seq], 1)
		}
		return c.Report()
	}
	if up, down := report([]int{0, 1, 2}), report([]int{2, 1, 0}); up != down {
		t.Errorf("delivery order moved the report:\n  ascending:  %+v\n  descending: %+v", up, down)
	}
	var up, down stats.Accumulator
	for i := range latency {
		up.Add(latency[i])
		down.Add(latency[len(latency)-1-i])
	}
	if up.Mean() == down.Mean() {
		t.Fatal("the latencies average to the same float in either order: the check shows nothing")
	}
}
