// Package mac simulates a CSMA/CA-flavoured wireless MAC over a shared
// medium: carrier sensing, random backoff, finite-rate frame
// serialization, receiver-side collision corruption, a bounded link-layer
// queue, and bounded retransmission of unicast frames.
//
// It deliberately simplifies IEEE 802.11 (no bit-level capture, no
// explicit RTS/CTS frames) while preserving the mechanisms the paper's
// analysis rests on: "the increased contention is the reason why epidemic
// routing slows down when messages increase" and "it is faster because
// contentions are avoided by allowing only reasonable number of identical
// message copies in transit". More traffic here means longer queues, more
// deferrals, and more collisions — exactly those dynamics.
//
// The radio is the paper's Table 1, as NS-2's 802.11 ran it, and every
// world uses it unchanged:
//
//   - bit rate 1 Mbps, and 464 header bits (58 bytes of MAC and PHY
//     header) on every frame;
//   - a link-layer queue of 150 frames;
//   - carrier sense and interference reaching 2× the reception range;
//   - slot 20 µs, DIFS 50 µs, SIFS 10 µs, and a contention window of 32
//     slots doubling up to 1024 on each retry;
//   - 4 retransmissions of a unicast frame;
//   - capture ratio 10: a reception survives an interferer whose power at
//     the receiver is at least 10× weaker (power falls as distance⁻⁴);
//   - virtual carrier sense (RTS/CTS, NS-2's RTSThreshold 0) on every
//     unicast frame: the channel is also busy within reception range of
//     the receiver, so hidden terminals there defer.
//
// Only the reception range, the radio index's slack and the fault layer's
// reception veto vary per world (Config).
package mac

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"glr/internal/des"
	"glr/internal/geom"
	"glr/internal/rng"
	"glr/internal/spatial"
)

// Broadcast is the destination id addressing every radio in range.
const Broadcast = -1

// The Table-1 radio of the package doc: rates in bits/s, sizes in bits
// and frames, times in seconds, windows in slots, ratios dimensionless.
const (
	bitRate       = 1e6
	headerBits    = 58 * 8
	queueLen      = 150
	csRangeFactor = 2
	slotTime      = 20e-6
	difs          = 50e-6
	sifs          = 10e-6
	cwMin         = 32
	cwMax         = 1024
	maxRetries    = 4
	captureRatio  = 10
)

// Config holds what varies between worlds; the rest of the radio is
// the Table-1 constants above.
type Config struct {
	Range float64 // reception range in metres
	// IndexSlack widens spatial-index queries over radios by this many
	// metres to tolerate movement between index refreshes. The index
	// returns exactly the radios whose indexed position lies within
	// Range+IndexSlack of the sender, so the slack must exceed the
	// farthest any radio can drift between Reindex calls by a margin for
	// float rounding (the simulator sets MaxSpeed × reindex interval
	// plus one metre); a radio that drifts farther is missed. Zero is
	// correct for static radios, whose indexed positions are exact.
	IndexSlack float64
	// DropRx, when non-nil, vetoes individual receptions: a frame from
	// src arriving at dst at time now (sender position at start of
	// airing, receiver position at reception) is silently lost when it
	// returns true, counted in Stats.FaultDrops. It is consulted after
	// the range check and before interference resolution. It MUST be a
	// pure function of its arguments — the fault-injection layer's
	// blackout and churn predicates are — so a run stays reproducible
	// from its seed. Nil (the default) costs nothing on the hot path.
	DropRx func(src, dst int, now float64, srcPos, dstPos geom.Point) bool
}

// Validate reports a descriptive error for a range or index slack that
// is not finite and in range, or whose query radii overflow, so a valid
// configuration never hands the spatial index an infinite or NaN
// radius.
func (c Config) Validate() error {
	finite := func(xs ...float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return false
			}
		}
		return true
	}
	switch {
	case !(c.Range > 0) || !finite(c.Range):
		return fmt.Errorf("mac: range %v must be positive and finite", c.Range)
	case !(c.IndexSlack >= 0) || !finite(c.IndexSlack):
		return fmt.Errorf("mac: index slack %v must be finite and nonnegative", c.IndexSlack)
	case !finite(c.Range*(1+csRangeFactor), c.Range+c.IndexSlack):
		return fmt.Errorf("mac: range %v overflows the index query radius", c.Range)
	}
	return nil
}

// Frame is one link-layer transmission unit. Payload is opaque to the MAC.
type Frame struct {
	Src     int
	Dst     int // Broadcast or a radio id
	Bits    int // payload size in bits (header added by the MAC)
	Payload any
}

// ReceiveFunc is invoked on a radio when a frame is successfully received.
type ReceiveFunc func(f *Frame)

// SentFunc is invoked on the sender when the MAC has finished with a frame:
// for unicast, ok reports whether the destination received it (after
// retries); for broadcast, ok is always true once the frame has aired.
type SentFunc func(f *Frame, ok bool)

// Stats counts medium-wide MAC events.
type Stats struct {
	FramesQueued    uint64
	QueueDrops      uint64
	Transmissions   uint64 // individual airings, including retries
	Collisions      uint64 // receiver-frame corruption events
	UnicastFailures uint64 // frames abandoned after maxRetries retries
	Delivered       uint64 // successful frame receptions
	BusyDeferrals   uint64
	FaultDrops      uint64 // receptions vetoed by Config.DropRx
}

// Medium is the shared wireless channel. All radios attached to a medium
// share one spatial channel; concurrency is event-driven via the scheduler.
//
// The medium keeps two uniform-grid indexes with cell size equal to the
// carrier-sense range:
// one over radios (cells refreshed lazily whenever a radio's position is
// observed, and in bulk by Reindex) and one over the anchor points of
// retained transmissions (sender position, plus the receiver position for
// unicast virtual carrier sensing). Reception resolution, carrier
// sensing, and interference checks then touch only the 3×3 cell block
// around a point instead of every radio and airing in the simulation.
//
// Unresolved airings are also indexed by end tick: ending maps each
// pending end time to its airings in start order, and one scheduler
// event per distinct end tick resolves that tick's batch. An end event
// therefore costs the size of its own batch, not the world's retained
// air. The active FIFO only decides when an airing is old enough to be
// pruned: an ended airing is kept for the longest airtime started so
// far plus one slot (retain), the least that still covers every
// airing it can overlap, so interferer gathers and carrier sensing walk
// only the last few airtimes of the channel (see pruneActive).
type Medium struct {
	cfg    Config
	sched  *des.Scheduler
	rng    *rand.Rand
	pos    func(id int) geom.Point // current position of radio id
	radios []*Radio
	active []*transmission // FIFO, in start order, of retained transmissions
	head   int             // index of the oldest retained entry in active
	retain float64         // seconds an ended airing is kept: longest airtime + slotTime
	stats  Stats

	// End-tick index of unresolved airings. endFn is the one shared end
	// event handler; endFree recycles the per-tick slices so a tick costs
	// no allocation in steady state.
	ending  map[des.Time][]*transmission
	endFree [][]*transmission
	endFn   des.Handler

	// Spatial index state. Transmission anchors are registered under
	// small recycled handles so the handle table stays a dense slice.
	radioIdx    pointIndex
	txIdx       pointIndex
	txByHandle  []*transmission
	freeHandles []int
	scratch     []int           // receiver-candidate ids for the batch being resolved
	csScratch   []int           // carrier-sense / interferer-gather handle buffer
	txCand      []*transmission // interferer candidates shared by the batch being resolved
	candEpoch   uint64          // dedup stamp for txCand gathering
	txFree      []*transmission // recycled transmission objects

	// rxClock, when non-nil, receives the wall-clock duration of each
	// end-of-airing resolution batch (see SetRxClock).
	rxClock func(time.Duration)
}

// takeTx returns a recycled (or fresh) transmission object. Recycling is
// safe because every reference to a transmission — the active FIFO, the
// spatial handles, the end-tick index, and txCand — is dropped by the
// time pruneActive releases it; radios keep only value copies of their
// own airings.
func (m *Medium) takeTx() *transmission {
	if n := len(m.txFree); n > 0 {
		t := m.txFree[n-1]
		m.txFree = m.txFree[:n-1]
		t.candMark = 0
		return t
	}
	return &transmission{}
}

// pointIndex is the medium's spatial query surface: a disk query returns
// exactly the ids whose indexed position lies in the closed disk, in a
// deterministic order. spatial.Grid is its one implementation; the
// medium's tests swap in an all-pairs index as their oracle.
type pointIndex interface {
	Insert(id int, p geom.Point) error
	Update(id int, p geom.Point)
	Remove(id int) bool
	NearIDs(p geom.Point, r float64, buf []int) []int
}

// NewMedium creates a medium for about n radios in the region
// [0,w]×[0,h], which sizes its spatial indexes (radios outside it are
// still resolved exactly). seed drives backoff jitter only, through
// one rng.New stream shared by every radio of the medium. pos reports
// the current position of any attached radio by id; the medium reads it
// whenever it needs a radio's position, so it must answer for every id
// AddRadio will attach.
func NewMedium(sched *des.Scheduler, cfg Config, seed int64, w, h float64, n int, pos func(id int) geom.Point) (*Medium, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Medium{
		cfg:    cfg,
		sched:  sched,
		rng:    rng.New(seed),
		pos:    pos,
		retain: slotTime,
		ending: make(map[des.Time][]*transmission),
	}
	m.endFn = m.resolveEnds
	// Cell sizes match each index's query radius so any disk query
	// touches at most a 3×3 cell block: reception range for the radio
	// index, carrier-sense range for transmission anchors (a region too
	// large for its radio count doubles them; see spatial.NewGrid).
	var err error
	if m.radioIdx, err = spatial.NewGrid(cfg.Range, w, h, n); err != nil {
		return nil, err
	}
	if m.txIdx, err = spatial.NewGrid(cfg.Range*csRangeFactor, w, h, n); err != nil {
		return nil, err
	}
	return m, nil
}

// SetRxClock installs a callback receiving the wall-clock duration of
// each end-of-airing resolution batch (reception resolution is the
// medium's hot phase). nil (the default) disables the timing; the
// simulator's phase profiler installs it on demand.
func (m *Medium) SetRxClock(fn func(time.Duration)) { m.rxClock = fn }

// Stats returns a snapshot of the medium counters.
func (m *Medium) Stats() Stats { return m.stats }

// AddRadio attaches a radio with the given id (must equal the insertion
// index) and callbacks; its position is the medium's pos(id). onSent may
// be nil.
func (m *Medium) AddRadio(id int, onRecv ReceiveFunc, onSent SentFunc) (*Radio, error) {
	if id != len(m.radios) {
		return nil, fmt.Errorf("mac: radio id %d must be %d (insertion order)", id, len(m.radios))
	}
	r := &Radio{
		id:     id,
		medium: m,
		onRecv: onRecv,
		onSent: onSent,
		cw:     cwMin,
	}
	r.attemptFn = func() {
		r.attemptArmed = false
		r.tryTransmit()
	}
	m.radios = append(m.radios, r)
	if err := m.radioIdx.Insert(id, m.pos(id)); err != nil {
		return nil, err
	}
	return r, nil
}

// Reindex refreshes every radio's indexed position. The simulator calls
// it periodically (once per beacon interval) so that, together with the
// lazy per-observation refreshes, no indexed position is ever staler
// than one reindex period — the drift bound Config.IndexSlack must
// cover.
func (m *Medium) Reindex() {
	for id := range m.radios {
		m.radioIdx.Update(id, m.pos(id))
	}
}

// transmission is one airing of a frame. Objects are pooled by the
// medium (see takeTx/pruneActive).
type transmission struct {
	from       *Radio
	frame      *Frame
	start, end des.Time
	pos        geom.Point // sender position at start of airing
	rxPos      geom.Point // unicast receiver position (virtual CS anchor)
	hasRx      bool
	h0, h1     int    // spatial-index handles for pos / rxPos (h1 = -1 if none)
	candMark   uint64 // dedup stamp against Medium.candEpoch during gathering
}

// airing is a value copy of a transmission's interval, retained on the
// sending radio for half-duplex checks after the transmission object
// may have been recycled.
type airing struct {
	start, end des.Time
}

func (t *transmission) overlaps(u *transmission) bool {
	return t.start < u.end && u.start < t.end
}

// frameAirtime returns the seconds needed to serialize a frame. The bit
// counts are summed as floats so a huge payload cannot overflow int.
func (m *Medium) frameAirtime(f *Frame) float64 {
	return (headerBits + float64(f.Bits)) / bitRate
}

// occupies reports whether airing t keeps the channel busy at p now, per
// physical carrier sense around the sender and virtual carrier sense
// around the unicast receiver — the RTS/CTS NAV only reaches nodes that
// can decode the receiver's CTS, i.e. within reception range of it.
func (t *transmission) occupies(p geom.Point, now des.Time, cs2, range2 float64) bool {
	if t.end <= now {
		return false
	}
	return t.pos.Dist2(p) <= cs2 || (t.hasRx && t.rxPos.Dist2(p) <= range2)
}

// busyFor reports whether the channel is sensed busy at p now, and if so,
// the latest end time among the occupying transmissions.
func (m *Medium) busyFor(p geom.Point) (bool, des.Time) {
	if len(m.ending) == 0 {
		// Silent channel: every airing with end > now is indexed under
		// its end tick. The members of a batch being resolved are no
		// longer indexed, and have end == now, so they occupy nothing.
		return false, 0
	}
	now := m.sched.Now()
	cs := m.cfg.Range * csRangeFactor
	cs2 := cs * cs
	range2 := m.cfg.Range * m.cfg.Range
	busy := false
	var until des.Time
	// Both anchor kinds are covered by one query of radius cs: a
	// transmission occupying p has its sender anchor within cs, or its
	// receiver anchor within Range ≤ cs. Anchors are positions frozen
	// at the start of the airing, so no movement slack is needed. A
	// unicast airing indexed under both anchors may be visited twice;
	// the predicate is idempotent. The handle buffer is separate from
	// the batch's receiver scratch because carrier sensing runs inside
	// reception callbacks (receiver reacts by queueing a frame).
	m.csScratch = m.txIdx.NearIDs(p, cs, m.csScratch[:0])
	for _, h := range m.csScratch {
		if t := m.txByHandle[h]; t.occupies(p, now, cs2, range2) {
			busy = true
			if t.end > until {
				until = t.end
			}
		}
	}
	return busy, until
}

// allocHandle registers t under a recycled spatial-index handle at
// anchor p.
func (m *Medium) allocHandle(t *transmission, p geom.Point) int {
	var h int
	if n := len(m.freeHandles); n > 0 {
		h = m.freeHandles[n-1]
		m.freeHandles = m.freeHandles[:n-1]
		m.txByHandle[h] = t
	} else {
		h = len(m.txByHandle)
		m.txByHandle = append(m.txByHandle, t)
	}
	m.txIdx.Update(h, p)
	return h
}

// releaseHandle unregisters handle h.
func (m *Medium) releaseHandle(h int) {
	m.txIdx.Remove(h)
	m.txByHandle[h] = nil
	m.freeHandles = append(m.freeHandles, h)
}

// indexTransmission registers a fresh airing with the spatial index:
// the transmission is bucketed under its anchor cells, and the sender's
// cached cell is refreshed from the position just observed.
func (m *Medium) indexTransmission(t *transmission) {
	if m.cfg.IndexSlack > 0 {
		m.radioIdx.Update(t.from.id, t.pos) // lazy refresh of the sender
	}
	t.h0 = m.allocHandle(t, t.pos)
	t.h1 = -1
	if t.hasRx {
		t.h1 = m.allocHandle(t, t.rxPos)
	}
	// Remember the airing interval on the sender for half-duplex
	// checks, pruning entries too old to overlap anything in flight.
	now := m.sched.Now()
	keep := t.from.recent[:0]
	for _, u := range t.from.recent {
		if u.end+m.retain > now {
			keep = append(keep, u)
		}
	}
	t.from.recent = append(keep, airing{start: t.start, end: t.end})
}

// pruneActive drops transmissions old enough that they can no longer
// overlap anything in flight. An airing is kept for m.retain after its
// end: the longest airtime started so far plus one slot. An
// unresolved airing ends at or after now and started at most one
// longest airtime before its end, so it cannot overlap an airing that
// ended m.retain ago (an airing that starts in the tick another ends
// does not overlap it). The slot margin absorbs float rounding at
// the u.end+m.retain <= now boundary, which stays far below a slot
// while the clock can still resolve slots. Airings expire in near-FIFO
// order (they are appended in start order and their airtimes are
// bounded by m.retain), so popping from the front is amortized O(1) per
// airing; the handful of out-of-order stragglers a long frame keeps
// alive are filtered by the overlap checks like any other retained
// entry. Unresolved airings are never pruned: m.retain is positive and
// they end at or after now.
func (m *Medium) pruneActive() {
	now := m.sched.Now()
	for m.head < len(m.active) && m.active[m.head].end+m.retain <= now {
		t := m.active[m.head]
		m.releaseHandle(t.h0)
		if t.h1 >= 0 {
			m.releaseHandle(t.h1)
		}
		m.active[m.head] = nil // allow collection
		m.head++
		t.frame = nil // drop the payload reference while pooled
		m.txFree = append(m.txFree, t)
	}
	if m.head == len(m.active) {
		m.active = m.active[:0]
		m.head = 0
	} else if m.head >= 64 && m.head*2 >= len(m.active) {
		n := copy(m.active, m.active[m.head:])
		for i := n; i < len(m.active); i++ {
			m.active[i] = nil
		}
		m.active = m.active[:n]
		m.head = 0
	}
}

// txCorrupts reports whether airing u, from a sender other than the
// receiver, destroys reception of t at position p. The capture effect
// lets a much stronger wanted signal survive: with two-ray path loss,
// power ratio ≈ (d_interferer/d_sender)⁴. A receiver at the sender's
// very position has no ratio to compare, and any overlap corrupts there.
func txCorrupts(u, t *transmission, p geom.Point, ir2, dWanted2 float64) bool {
	if u == t || !t.overlaps(u) {
		return false
	}
	dInt2 := u.pos.Dist2(p)
	if dInt2 > ir2 {
		return false // interferer too far to matter
	}
	if dWanted2 > 0 {
		ratio2 := dInt2 / dWanted2
		if ratio2*ratio2 >= captureRatio {
			return false // captured: wanted signal dominates
		}
	}
	return true
}

// corruptedAt reports whether reception of t at position p (receiver id
// rid) is destroyed by an overlapping transmission from another sender
// within interference range, or by the receiver transmitting itself
// (half-duplex).
func (m *Medium) corruptedAt(t *transmission, rid int, p geom.Point) bool {
	ir := m.cfg.Range * csRangeFactor
	ir2 := ir * ir
	dWanted2 := t.pos.Dist2(p)
	// Half-duplex first: the receiver's own overlapping airings corrupt
	// regardless of distance, so they come from the per-radio history
	// rather than the (distance-bounded) candidate set. t is never the
	// receiver's own airing (senders do not receive themselves), so no
	// identity check is needed.
	for _, u := range m.radios[rid].recent {
		if t.start < u.end && u.start < t.end {
			return true
		}
	}
	// txCand was gathered once for the whole end-of-tick batch by
	// gatherInterferers; it is a superset of every transmission within
	// interference range of any receiver of any batch member, so the
	// exact predicate decides. Batch-mates are in the set and genuinely
	// overlap each other; t itself is skipped by the u == t check.
	for _, u := range m.txCand {
		if u.from.id != rid && txCorrupts(u, t, p, ir2, dWanted2) {
			return true
		}
	}
	return false
}

// gatherInterferers collects, once per end-of-tick batch, the active
// transmissions that could interfere at any receiver of any batch
// member. Every receiver lies within Range of its sender and an
// interferer matters within ir of the receiver, so by the triangle
// inequality one index query of radius Range+ir around each batch
// sender covers them all; candidates are deduplicated across the batch
// (and across a unicast airing's two anchors) with an epoch stamp on
// the transmission object, so the union is gathered in a single pass
// over the affected grid cells.
func (m *Medium) gatherInterferers(batch []*transmission) {
	m.txCand = m.txCand[:0]
	m.candEpoch++
	reach := m.interferenceReach()
	for _, t := range batch {
		m.csScratch = m.txIdx.NearIDs(t.pos, reach, m.csScratch[:0])
		for _, h := range m.csScratch {
			if u := m.txByHandle[h]; u.candMark != m.candEpoch {
				u.candMark = m.candEpoch
				m.txCand = append(m.txCand, u)
			}
		}
	}
}

// interferenceReach is gatherInterferers' query radius: Range plus the
// farthest an interferer can be from a receiver and still corrupt it,
// as computed, widened by a relative 1e-9 plus 1e-100 m. txCorrupts
// counts an interferer only within ir = Range·csRangeFactor of the
// receiver, and only under captureRatio^¼ times the receiver's distance
// from its sender, at most Range (farther, the wanted signal is
// captured; a receiver at its sender's position has no capture, but
// then its interferers are within ir of the sender). With the Table-1
// constants the capture bound is the smaller, so the reach is about
// 2.78·Range. The index filters exactly, and the triangle inequality
// holds only up to rounding for the distances txCorrupts and deliverTo
// compute, so the margin keeps every interferer they would count: it
// dwarfs the few ulps of relative error of each squared distance and of
// the capture comparison, and the additive term keeps the squared
// radius a normal float for ranges so small that their squares lose
// precision. Capped at the largest finite float.
func (m *Medium) interferenceReach() float64 {
	r := m.cfg.Range
	reach := r + min(r*csRangeFactor, r*math.Sqrt(math.Sqrt(captureRatio)))
	return min(reach+reach*1e-9+1e-100, math.MaxFloat64)
}

// scheduleEnd indexes a fresh airing under its end tick. The first
// airing to end at a tick creates the tick's entry and schedules the
// tick's one end event; later airings ending in the same tick join the
// entry in start order.
func (m *Medium) scheduleEnd(t *transmission) {
	batch, ok := m.ending[t.end]
	if !ok {
		if n := len(m.endFree); n > 0 {
			batch = m.endFree[n-1]
			m.endFree = m.endFree[:n-1]
		}
		m.sched.At(t.end, m.endFn)
	}
	m.ending[t.end] = append(batch, t)
}

// resolveEnds is the end event of one tick: it takes the tick's batch
// from the end-tick index, prunes the FIFO once, gathers the batch's
// shared interferer-candidate set in one pass over the affected grid
// cells, and resolves every batch member in start order. Airings started
// while the batch resolves (a zero-length frame could end in this very
// tick) open a new entry with its own end event.
func (m *Medium) resolveEnds() {
	if m.rxClock != nil {
		start := time.Now()
		defer func() { m.rxClock(time.Since(start)) }()
	}
	now := m.sched.Now()
	batch := m.ending[now]
	delete(m.ending, now)
	m.pruneActive()
	m.gatherInterferers(batch)
	for _, u := range batch {
		u.from.endTransmission(u)
	}
	clear(batch)
	m.endFree = append(m.endFree, batch[:0])
}

// finishTransmission resolves receptions at the end of an airing and
// reports whether the unicast destination (if any) received the frame.
// The caller (resolveEnds) has already pruned the FIFO and gathered the
// batch's interferer candidates.
func (m *Medium) finishTransmission(t *transmission) bool {
	if dst := t.frame.Dst; dst != Broadcast {
		// Unicast fast path: only the destination can accept the frame,
		// and radio ids are dense insertion indices, so the id→radio
		// lookup is O(1) regardless of network size.
		if dst < 0 || dst >= len(m.radios) || dst == t.from.id {
			return false
		}
		return m.deliverTo(t, dst)
	}
	// Candidate receivers are the radios indexed within reception range
	// of the sender, widened by IndexSlack to cover movement since
	// their positions were last indexed. The ids are snapshotted (the
	// deliveries below move entries between cells) and visited in index
	// order, which is deterministic for a given seed.
	m.scratch = m.radioIdx.NearIDs(t.pos, m.cfg.Range+m.cfg.IndexSlack, m.scratch[:0])
	for _, id := range m.scratch {
		if id != t.from.id {
			m.deliverTo(t, id)
		}
	}
	return false
}

// deliverTo attempts reception of t at radio id and reports success. As
// a side effect it refreshes the radio's indexed position from the one
// just observed. The Radio itself is loaded only for a receiver in
// range.
func (m *Medium) deliverTo(t *transmission, id int) bool {
	p := m.pos(id)
	if t.pos.Dist2(p) > m.cfg.Range*m.cfg.Range {
		return false
	}
	if m.cfg.IndexSlack > 0 {
		// Lazy refresh: the receiver's position was just observed.
		// Out-of-range candidates are left to the periodic Reindex,
		// which alone bounds staleness to what IndexSlack covers. Zero
		// slack promises static radios (see Config.IndexSlack), where
		// no refresh is ever needed.
		m.radioIdx.Update(id, p)
	}
	if m.cfg.DropRx != nil && m.cfg.DropRx(t.from.id, id, float64(m.sched.Now()), t.pos, p) {
		m.stats.FaultDrops++
		return false
	}
	if m.corruptedAt(t, id, p) {
		m.stats.Collisions++
		return false
	}
	m.stats.Delivered++
	if r := m.radios[id]; r.onRecv != nil {
		r.onRecv(t.frame)
	}
	return true
}
