package des

import (
	"math"
	"sort"
)

// calendarQueue is the Scheduler's event set: a Brown-style calendar queue
// (R. Brown, "Calendar queues: a fast O(1) priority queue implementation
// for the simulation event set problem", CACM 1988), the structure NS-2's
// scheduler made standard for network DES.
//
// Geometry: time is divided into "days" of a fixed width; day k maps to
// physical bucket k mod nbuckets, so the nbuckets buckets cover one
// "year" and recycle across years. Each bucket keeps its events in an
// intrusive singly-linked chain sorted by the total order eventLess, so
// dequeue order within a day is exact — there is no approximate binning,
// and dispatch order is byte-identical to a binary heap's. Chains make
// enqueue and dequeue allocation-free: an event links into its bucket
// through its own next pointer, so steady-state scheduling never grows a
// slice and never feeds the garbage collector. With the width matched to
// the local event density (≈1 event per day near the head; see newWidth)
// and the bucket count resized to stay within a factor of two of the
// event count, enqueue and dequeue touch O(1) events amortized, versus
// the heap's O(log n) sift paths.
//
// Dequeue keeps a cursor (lastV, the virtual day of the dequeue
// position): the minimum event is found by scanning days forward from
// the cursor, checking only each bucket's head. Because dispatch times
// never decrease and enqueues below the cursor rewind it, the first head
// found inside its own day window is the global minimum. If a whole year
// of days turns up empty (a sparse far-future queue), a direct scan of
// all bucket heads finds the minimum and re-anchors the cursor —
// amortized away by the resize policy, which shrinks the calendar as the
// queue drains.
type calendarQueue struct {
	heads []*event // head of the sorted chain per bucket
	tails []*event // chain tail; stale when the head is nil
	mask  int      // len(heads)-1; len is a power of two
	width float64  // day width in simulated seconds
	invW  float64  // 1/width, so vday multiplies instead of divides
	count int
	lastV int64 // virtual day of the dequeue cursor

	// peek caches its result so the pop that follows it is O(1); any
	// mutation that can change the minimum invalidates it.
	cached  *event
	cachedB int
}

const (
	calMinBuckets = 4
	// calSampleMax bounds the head sample used to estimate day width at
	// resize (Brown samples a small prefix of the queue for the same
	// reason: the width should match event density near the head).
	calSampleMax = 32
	// calMinWidth keeps virtual day numbers finite: at the simulator's
	// time scales (seconds, horizons ≤1e9), at/width stays far inside
	// int64 range.
	calMinWidth = 1e-9
)

func newCalendarQueue() *calendarQueue {
	return &calendarQueue{
		heads: make([]*event, calMinBuckets),
		tails: make([]*event, calMinBuckets),
		mask:  calMinBuckets - 1,
		width: 1.0,
		invW:  1.0,
	}
}

// vday maps a timestamp to its virtual day. Timestamps are finite and
// nonnegative (the Scheduler rejects scheduling before time 0 and at NaN
// or +Inf, whose int64 conversion Go leaves implementation-defined), so
// truncation is floor. Multiplying by the cached reciprocal is not bit-equal to
// dividing by width, but any monotone time→day map is correct here: the
// queue only needs insert, peek, and the cursor to agree on the map.
func (q *calendarQueue) vday(t Time) int64 { return int64(t * q.invW) }

func (q *calendarQueue) push(ev *event) {
	q.insert(ev)
	if q.cached != nil && eventLess(ev, q.cached) {
		q.cached = nil
	}
	if q.count > 2*len(q.heads) {
		q.resize(2 * len(q.heads))
	}
}

// insert links ev into its bucket chain in sorted position, without
// triggering a resize (resize itself re-inserts through this path).
func (q *calendarQueue) insert(ev *event) {
	v := q.vday(ev.at)
	if v < q.lastV {
		// An enqueue below the cursor (possible after the clock advanced
		// to a horizon past the queue minimum) rewinds it so the year
		// scan cannot start beyond the new minimum.
		q.lastV = v
	}
	b := int(v & int64(q.mask))
	head := q.heads[b]
	switch {
	case head == nil:
		ev.next = nil
		q.heads[b], q.tails[b] = ev, ev
	case !eventLess(ev, q.tails[b]):
		// Append-at-end fast path: seq grows monotonically, so events
		// scheduled for the same instant (and most in-order workloads)
		// land here in O(1).
		ev.next = nil
		q.tails[b].next = ev
		q.tails[b] = ev
	case eventLess(ev, head):
		ev.next = head
		q.heads[b] = ev
	default:
		cur := head
		for cur.next != nil && !eventLess(ev, cur.next) {
			cur = cur.next
		}
		ev.next = cur.next
		cur.next = ev
	}
	q.count++
}

func (q *calendarQueue) peek() *event {
	if q.cached != nil {
		return q.cached
	}
	if q.count == 0 {
		return nil
	}
	// Year scan: walk days forward from the cursor; the first bucket head
	// lying within (or before) the day under inspection is the minimum.
	v := q.lastV
	for k := 0; k <= q.mask; k++ {
		b := int(v & int64(q.mask))
		if head := q.heads[b]; head != nil && q.vday(head.at) <= v {
			q.lastV = v
			q.cached, q.cachedB = head, b
			return head
		}
		v++
	}
	// Sparse queue: nothing within a year of the cursor. Direct-search
	// every bucket head for the global minimum and re-anchor the cursor.
	var best *event
	bestB := -1
	for b, head := range q.heads {
		if head != nil && (best == nil || eventLess(head, best)) {
			best, bestB = head, b
		}
	}
	q.lastV = q.vday(best.at)
	q.cached, q.cachedB = best, bestB
	return best
}

func (q *calendarQueue) pop() *event {
	ev := q.peek()
	if ev == nil {
		return nil
	}
	q.heads[q.cachedB] = ev.next
	ev.next = nil
	q.count--
	q.lastV = q.vday(ev.at)
	q.cached = nil
	if n := len(q.heads); n > calMinBuckets && q.count < n/2 {
		q.resize(n / 2)
	}
	return ev
}

// remove unlinks a resident event from its bucket chain: O(chain length),
// which the width policy keeps at a few events. Backs eager Cancel.
func (q *calendarQueue) remove(ev *event) {
	b := int(q.vday(ev.at) & int64(q.mask))
	if q.cached == ev {
		q.cached = nil
	}
	if head := q.heads[b]; head == ev {
		q.heads[b] = ev.next
	} else {
		cur := head
		for cur.next != ev {
			cur = cur.next
		}
		cur.next = ev.next
		if q.tails[b] == ev {
			q.tails[b] = cur
		}
	}
	ev.next = nil
	q.count--
	if n := len(q.heads); n > calMinBuckets && q.count < n/2 {
		q.resize(n / 2)
	}
}

// resize rebuilds the calendar with n buckets and a day width re-fitted
// to the current event density. O(count), amortized O(1) per operation by
// the doubling/halving policy.
func (q *calendarQueue) resize(n int) {
	if n < calMinBuckets {
		n = calMinBuckets
	}
	all := make([]*event, 0, q.count)
	for _, head := range q.heads {
		for ev := head; ev != nil; ev = ev.next {
			all = append(all, ev)
		}
	}
	q.width = q.newWidth(all)
	q.invW = 1 / q.width
	q.heads = make([]*event, n)
	q.tails = make([]*event, n)
	q.mask = n - 1
	q.count = 0
	q.cached = nil
	minV := int64(math.MaxInt64)
	for _, ev := range all {
		if v := q.vday(ev.at); v < minV {
			minV = v
		}
	}
	if len(all) > 0 {
		q.lastV = minV
	}
	for _, ev := range all {
		q.insert(ev)
	}
}

// newWidth estimates the day width from the events nearest the head: the
// average separation of the calSampleMax earliest timestamps, so a day
// holds about one event where dequeueing happens. Brown tunes for a few
// events per day, but that balance assumes comparable bucket-scan and
// chain-walk costs; here scanning an empty day is a sequential array
// read while every chain step is a dependent cache miss, so the width
// aims at occupancy ≈1. A degenerate sample (fewer than two events, or
// all simultaneous) keeps the current width — any width dispatches
// simultaneous events correctly, since buckets order by (at, seq).
func (q *calendarQueue) newWidth(all []*event) float64 {
	if len(all) < 2 {
		return q.width
	}
	sample := make([]float64, 0, calSampleMax)
	for _, ev := range all {
		t := ev.at
		if len(sample) == calSampleMax && t >= sample[len(sample)-1] {
			continue
		}
		i := sort.SearchFloat64s(sample, t)
		if len(sample) < calSampleMax {
			sample = append(sample, 0)
		}
		copy(sample[i+1:], sample[i:])
		sample[i] = t
	}
	w := (sample[len(sample)-1] - sample[0]) / float64(len(sample)-1)
	if w < calMinWidth {
		return q.width
	}
	return w
}
