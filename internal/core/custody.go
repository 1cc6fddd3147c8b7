package core

import (
	"slices"

	"glr/internal/dtn"
	"glr/internal/freelist"
)

// custodyTable is one node's message storage, the two areas of §2.3.2:
// "The Store is the place where messages are waiting to be sent whereas
// messages that are just sent are saved in the Cache." A copy moves
// Store→Cache when transmitted (markSent), leaves when the next hop
// acknowledges custody (release), and moves Cache→Store when the
// acknowledgment times out (expire: "after staying in the Cache for
// specified time, the message is moved from Cache to Store for another
// round of transfer rescheduling") or the send fails (returnToStore).
//
// Each held copy is one copyRec from the world's record list, indexed by
// message id over both areas, so a node holds a message at most once.
// The capacity bounds Store+Cache together (the paper's per-node storage
// limit counts messages held); under pressure "message in the Cache is
// dropped first", then the oldest of the Store. The index is made on
// first write: a node that never holds a message costs the zero table.
type custodyTable struct {
	capacity int // Store+Cache bound; 0 = unlimited
	byID     map[dtn.MessageID]*copyRec
	store    []*copyRec // the Store, oldest first
	cache    []*copyRec // the Cache, oldest first
}

// copyRec is one held copy: the message, its area and send time, and
// the routing state the node keeps for it. It lives exactly as long as
// the copy, and goes back to the world's record list when the copy
// leaves (ack, eviction, fire-and-forget send, restart), so nothing may
// keep a *copyRec, or a pointer into one, past its release.
type copyRec struct {
	msg    dtn.Message
	cached bool    // in the Cache: sent and awaiting its custody ack
	sentAt float64 // when it entered the Cache
	msgState
}

// total returns the number of copies held across Store and Cache — the
// paper's "storage (number of messages)" metric.
func (t *custodyTable) total() int { return len(t.store) + len(t.cache) }

// get returns the record of the held copy of id, or nil.
func (t *custodyTable) get(id dtn.MessageID) *copyRec { return t.byID[id] }

// add copies m into the Store and returns its record. When a copy of
// the same message is held already, m's flags and a fresher destination
// estimate fold into it instead (two copies meeting at a node coalesce)
// and that copy's record is returned. Otherwise, when the table is full,
// the oldest Cache copy is dropped first and the oldest Store copy when
// the Cache is empty; its record goes back to recs.
func (t *custodyTable) add(m *dtn.Message, recs *freelist.List[copyRec]) *copyRec {
	if rec := t.byID[m.ID]; rec != nil {
		rec.msg.Flags |= m.Flags
		rec.msg.UpdateDstLoc(m.DstLoc, m.DstLocTime, m.DstLocKnown)
		return rec
	}
	if t.capacity > 0 && t.total() >= t.capacity {
		if len(t.cache) > 0 {
			t.release(t.cache[0], recs)
		} else {
			t.release(t.store[0], recs)
		}
	}
	rec := recs.Take()
	*rec = copyRec{msg: *m}
	if t.byID == nil {
		t.byID = make(map[dtn.MessageID]*copyRec)
	}
	t.byID[m.ID] = rec
	t.store = append(t.store, rec)
	return rec
}

// markSent moves rec, which must be in the Store, to the Cache and
// records the send time for the ack-timeout sweep.
func (t *custodyTable) markSent(rec *copyRec, now float64) {
	t.unlink(rec)
	rec.cached, rec.sentAt = true, now
	t.cache = append(t.cache, rec)
}

// returnToStore moves rec, which must be in the Cache, back to the
// Store: the sender learned the transfer failed before the timeout.
func (t *custodyTable) returnToStore(rec *copyRec) {
	t.unlink(rec)
	rec.cached = false
	t.store = append(t.store, rec)
}

// expire moves every Cache copy sent at or before deadline back to the
// Store, oldest first, and appends their records to buf (pass buf[:0]
// to reuse a scratch slice).
func (t *custodyTable) expire(deadline float64, buf []*copyRec) []*copyRec {
	kept := t.cache[:0]
	for _, rec := range t.cache {
		if rec.sentAt > deadline {
			kept = append(kept, rec)
			continue
		}
		rec.cached = false
		t.store = append(t.store, rec)
		buf = append(buf, rec)
	}
	t.cache = kept
	return buf
}

// release removes rec's copy from the table and hands rec back to recs.
func (t *custodyTable) release(rec *copyRec, recs *freelist.List[copyRec]) {
	t.unlink(rec)
	delete(t.byID, rec.msg.ID)
	recs.Put(rec)
}

// drain empties the table, handing every record back to recs (the
// Store's, then the Cache's, oldest first); its storage is kept.
func (t *custodyTable) drain(recs *freelist.List[copyRec]) {
	for _, rec := range t.store {
		recs.Put(rec)
	}
	for _, rec := range t.cache {
		recs.Put(rec)
	}
	t.store, t.cache = t.store[:0], t.cache[:0]
	clear(t.byID)
}

// unlink removes rec from its area, keeping the area's order. The scan
// is O(held copies), which the paper's storage limits keep small.
func (t *custodyTable) unlink(rec *copyRec) {
	area := &t.store
	if rec.cached {
		area = &t.cache
	}
	i := slices.Index(*area, rec)
	*area = slices.Delete(*area, i, i+1)
}
