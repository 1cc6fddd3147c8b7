// Package metrics collects the per-run observables the paper reports:
// delivery ratio, average delivery latency (first-copy arrival), average
// hop count over delivered messages, and per-node peak storage occupancy
// ("max peak storage" / "average peak storage" in Tables 4–5).
package metrics

import (
	"slices"

	"glr/internal/dtn"
	"glr/internal/stats"
)

// Collector accumulates one simulation run's observables. It is not
// goroutine-safe; each run owns its collector.
type Collector struct {
	created    map[dtn.MessageID]createdInfo
	delivered  map[dtn.MessageID]deliveredInfo
	duplicates int
	// latencySum accumulates first-copy latencies in delivery order so
	// Snapshot can report a running mean without walking the maps. The
	// final Report still sums in sorted-id order (see Report).
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

type createdInfo struct {
	at  float64
	dst int
}

type deliveredInfo struct {
	at   float64
	hops int
}

// NewCollector returns a collector for n nodes.
func NewCollector(n int) *Collector {
	return &Collector{
		created:     make(map[dtn.MessageID]createdInfo),
		delivered:   make(map[dtn.MessageID]deliveredInfo),
		peakStorage: make([]int, n),
	}
}

// Created records a message generation.
func (c *Collector) Created(id dtn.MessageID, at float64, dst int) {
	c.created[id] = createdInfo{at: at, dst: dst}
	if c.hooks.Created != nil {
		c.hooks.Created(id, at, dst)
	}
}

// Delivered records an arrival at the destination. Only the first copy
// counts for latency/hops; later copies increment the duplicate counter.
// It reports whether this was the first arrival.
func (c *Collector) Delivered(id dtn.MessageID, at float64, hops int) bool {
	first := true
	if _, dup := c.delivered[id]; dup {
		c.duplicates++
		first = false
	} else {
		c.delivered[id] = deliveredInfo{at: at, hops: hops}
		if created, ok := c.created[id]; ok {
			c.latencySum += at - created.at
		}
	}
	if c.hooks.Delivered != nil {
		ci := c.created[id]
		c.hooks.Delivered(id, ci.at, at, ci.dst, hops, first)
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
	// recomputes means in sorted-id order).
	LatencySum    float64
	ControlFrames uint64
	DataFrames    uint64
	Acks          uint64
}

// Snapshot returns the counters accumulated so far. O(1); safe to call
// mid-run from the simulation goroutine.
func (c *Collector) Snapshot() Snapshot {
	return Snapshot{
		Generated:     len(c.created),
		Delivered:     len(c.delivered),
		Duplicates:    c.duplicates,
		LatencySum:    c.latencySum,
		ControlFrames: c.controlFrames,
		DataFrames:    c.dataFrames,
		Acks:          c.acks,
	}
}

// IsDelivered reports whether the message has already reached its
// destination (used by protocols to stop forwarding stale copies).
func (c *Collector) IsDelivered(id dtn.MessageID) bool {
	_, ok := c.delivered[id]
	return ok
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

// Report is the digest of one run.
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
		Generated:     len(c.created),
		Delivered:     len(c.delivered),
		Duplicates:    c.duplicates,
		ControlFrames: c.controlFrames,
		DataFrames:    c.dataFrames,
		Acks:          c.acks,
	}
	if r.Generated > 0 {
		r.DeliveryRatio = float64(r.Delivered) / float64(r.Generated)
	}
	// Accumulate in sorted id order: float summation order must not
	// depend on map iteration, or identical runs would differ in the
	// last bits of their means.
	var lat, hops stats.Accumulator
	for _, id := range c.deliveredIDs() {
		created, ok := c.created[id]
		if !ok {
			continue
		}
		d := c.delivered[id]
		lat.Add(d.at - created.at)
		hops.Add(float64(d.hops))
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

// deliveredIDs returns delivered message ids sorted by (src, seq).
func (c *Collector) deliveredIDs() []dtn.MessageID {
	ids := make([]dtn.MessageID, 0, len(c.delivered))
	for id := range c.delivered {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, dtn.MessageID.Compare)
	return ids
}
