// Package metrics collects the per-run observables the paper reports:
// delivery ratio, average delivery latency (first-copy arrival), average
// hop count over delivered messages, and per-node peak storage occupancy
// ("max peak storage" / "average peak storage" in Tables 4–5).
package metrics

import (
	"glr/internal/dtn"
	"glr/internal/stats"
)

// Collector accumulates one simulation run's observables. It is not
// goroutine-safe; each run owns its collector.
type Collector struct {
	// msgs holds one record per message rank, sized from the world's
	// rank table at the first Created or Delivered.
	msgs       []msgRecord
	generated  int
	delivered  int
	duplicates int
	// latencySum accumulates first-copy latencies in delivery order so
	// Snapshot can report a running mean without walking the records.
	// The final Report still sums in rank order (see Report).
	latencySum float64

	peakStorage []int // per node

	controlFrames uint64
	dataFrames    uint64
	acks          uint64

	hooks Hooks
}

// Hooks are optional per-event callbacks observers attach to a
// collector. Callbacks fire synchronously on the simulation goroutine,
// after the collector's own state is updated; they must not mutate the
// run. Nil members are skipped.
type Hooks struct {
	// Created fires when a message is generated.
	Created func(id dtn.MessageID, at float64, dst int)
	// Delivered fires when a copy arrives at its destination. first is
	// true for the copy that counts (latency/hops), false for
	// duplicates. createdAt and dst echo the generation record.
	Delivered func(id dtn.MessageID, createdAt, at float64, dst, hops int, first bool)
}

// SetHooks installs per-event callbacks (replacing any previous set).
func (c *Collector) SetHooks(h Hooks) { c.hooks = h }

// msgRecord is what the collector knows of one message: its generation
// and its first arrival.
type msgRecord struct {
	createdAt   float64
	dst         int
	deliveredAt float64
	hops        int
	created     bool
	delivered   bool
}

// NewCollector returns a collector for n nodes.
func NewCollector(n int) *Collector {
	return &Collector{peakStorage: make([]int, n)}
}

// record returns id's record. ranks is the world's message rank table,
// the same on every call: the first call sizes the records from it.
func (c *Collector) record(ranks *dtn.MessageRanks, id dtn.MessageID) *msgRecord {
	if c.msgs == nil {
		c.msgs = make([]msgRecord, ranks.Len())
	}
	return &c.msgs[ranks.Rank(id)]
}

// Created records a message generation; ranks is the world's message
// rank table.
func (c *Collector) Created(ranks *dtn.MessageRanks, id dtn.MessageID, at float64, dst int) {
	rec := c.record(ranks, id)
	if !rec.created {
		c.generated++
	}
	rec.created, rec.createdAt, rec.dst = true, at, dst
	if c.hooks.Created != nil {
		c.hooks.Created(id, at, dst)
	}
}

// Delivered records an arrival at the destination; ranks is the world's
// message rank table. Only the first copy counts for latency/hops;
// later copies increment the duplicate counter. It reports whether this
// was the first arrival.
func (c *Collector) Delivered(ranks *dtn.MessageRanks, id dtn.MessageID, at float64, hops int) bool {
	rec := c.record(ranks, id)
	first := !rec.delivered
	if first {
		c.delivered++
		rec.delivered, rec.deliveredAt, rec.hops = true, at, hops
		if rec.created {
			c.latencySum += at - rec.createdAt
		}
	} else {
		c.duplicates++
	}
	if c.hooks.Delivered != nil {
		c.hooks.Delivered(id, rec.createdAt, at, rec.dst, hops, first)
	}
	return first
}

// Snapshot is the running digest Snapshot returns: counters so far, for
// periodic samplers observing a run in flight.
type Snapshot struct {
	Generated  int
	Delivered  int
	Duplicates int
	// LatencySum is the sum of first-copy latencies of the Delivered
	// messages (accumulated in delivery order; the end-of-run Report
	// recomputes means in rank order).
	LatencySum    float64
	ControlFrames uint64
	DataFrames    uint64
	Acks          uint64
}

// Snapshot returns the counters accumulated so far. O(1); safe to call
// mid-run from the simulation goroutine.
func (c *Collector) Snapshot() Snapshot {
	return Snapshot{
		Generated:     c.generated,
		Delivered:     c.delivered,
		Duplicates:    c.duplicates,
		LatencySum:    c.latencySum,
		ControlFrames: c.controlFrames,
		DataFrames:    c.dataFrames,
		Acks:          c.acks,
	}
}

// SampleStorage folds a storage-occupancy observation for a node into its
// running peak.
func (c *Collector) SampleStorage(node, used int) {
	if used > c.peakStorage[node] {
		c.peakStorage[node] = used
	}
}

// CountControlFrame increments the control-plane frame counter (beacons,
// summary vectors, location queries, acks...).
func (c *Collector) CountControlFrame() { c.controlFrames++ }

// CountDataFrame increments the data-plane frame counter.
func (c *Collector) CountDataFrame() { c.dataFrames++ }

// CountAck increments the custody-ack counter.
func (c *Collector) CountAck() { c.acks++ }

// Report is the digest of one run. The public glr.Result has the same
// fields in the same order, so each converts to the other directly;
// change both together.
type Report struct {
	Generated      int
	Delivered      int
	DeliveryRatio  float64
	AvgLatency     float64 // seconds, over delivered messages
	AvgHops        float64 // over delivered messages
	MaxPeakStorage int     // max over nodes of per-node peak occupancy
	AvgPeakStorage float64
	Duplicates     int
	ControlFrames  uint64
	DataFrames     uint64
	Acks           uint64
}

// Report digests the collector.
func (c *Collector) Report() Report {
	r := Report{
		Generated:     c.generated,
		Delivered:     c.delivered,
		Duplicates:    c.duplicates,
		ControlFrames: c.controlFrames,
		DataFrames:    c.dataFrames,
		Acks:          c.acks,
	}
	if r.Generated > 0 {
		r.DeliveryRatio = float64(r.Delivered) / float64(r.Generated)
	}
	// Accumulate in rank order, the canonical (Src, Seq) order: float
	// summation order must not depend on delivery order, or runs that
	// deliver the same copies in another order would differ in the last
	// bits of their means.
	var lat, hops stats.Accumulator
	for _, rec := range c.msgs {
		if rec.created && rec.delivered {
			lat.Add(rec.deliveredAt - rec.createdAt)
			hops.Add(float64(rec.hops))
		}
	}
	r.AvgLatency = lat.Mean()
	r.AvgHops = hops.Mean()
	var peak stats.Accumulator
	for _, p := range c.peakStorage {
		if p > r.MaxPeakStorage {
			r.MaxPeakStorage = p
		}
		peak.Add(float64(p))
	}
	r.AvgPeakStorage = peak.Mean()
	return r
}

// Confidence is the two-sided confidence level of every replication
// aggregate: the paper's 90%. It is fixed so committed artifacts are
// reproducible byte for byte.
const Confidence = 0.90

// Agg aggregates the replications of one scenario point: mean ± Student-t
// half-width at Confidence for every headline metric, plus total frames
// (control + data + acks) as the overhead measure. The field order is
// the atlas.json layout.
type Agg struct {
	DeliveryRatio  stats.MeanCI
	AvgLatency     stats.MeanCI
	AvgHops        stats.MeanCI
	AvgPeakStorage stats.MeanCI
	MaxPeakStorage stats.MeanCI
	Duplicates     stats.MeanCI
	Frames         stats.MeanCI
}

// Fold aggregates per-seed reports at Confidence.
func Fold(reports []Report) Agg {
	pull := func(f func(Report) float64) stats.MeanCI {
		xs := make([]float64, len(reports))
		for i, r := range reports {
			xs[i] = f(r)
		}
		return stats.ConfidenceInterval(xs, Confidence)
	}
	return Agg{
		DeliveryRatio:  pull(func(r Report) float64 { return r.DeliveryRatio }),
		AvgLatency:     pull(func(r Report) float64 { return r.AvgLatency }),
		AvgHops:        pull(func(r Report) float64 { return r.AvgHops }),
		AvgPeakStorage: pull(func(r Report) float64 { return r.AvgPeakStorage }),
		MaxPeakStorage: pull(func(r Report) float64 { return float64(r.MaxPeakStorage) }),
		Duplicates:     pull(func(r Report) float64 { return float64(r.Duplicates) }),
		Frames:         pull(func(r Report) float64 { return float64(r.ControlFrames + r.DataFrames + r.Acks) }),
	}
}
