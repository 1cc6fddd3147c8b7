package core

import (
	"math/rand"
	"slices"
	"testing"

	"glr/internal/dtn"
	"glr/internal/freelist"
	"glr/internal/geom"
)

// refCustody is the custody store custodyTable replaced, kept as its
// oracle: two FIFO buffers of message boxes keyed by id, one for the
// Store and one for the Cache, and a map of send times. It takes the
// caller's box on Add and hands boxes back on Ack and Drain.
type refCustody struct {
	capacity int // total Store+Cache bound; 0 = unlimited
	store    refBuffer
	cache    refBuffer
	sentAt   map[dtn.MessageID]float64
}

// refBuffer is an unbounded FIFO of message boxes keyed by id.
type refBuffer struct {
	order []dtn.MessageID // insertion order, oldest first
	byID  map[dtn.MessageID]*dtn.Message
}

func (b *refBuffer) add(m *dtn.Message) {
	if b.byID == nil {
		b.byID = make(map[dtn.MessageID]*dtn.Message)
	}
	b.order = append(b.order, m.ID)
	b.byID[m.ID] = m
}

func (b *refBuffer) remove(id dtn.MessageID) *dtn.Message {
	m, ok := b.byID[id]
	if !ok {
		return nil
	}
	delete(b.byID, id)
	b.order = slices.DeleteFunc(b.order, func(o dtn.MessageID) bool { return o == id })
	return m
}

func (b *refBuffer) popOldest() *dtn.Message { return b.remove(b.order[0]) }

func (b *refBuffer) messages() []*dtn.Message {
	out := make([]*dtn.Message, len(b.order))
	for i, id := range b.order {
		out[i] = b.byID[id]
	}
	return out
}

func (c *refCustody) Total() int { return len(c.store.order) + len(c.cache.order) }

func (c *refCustody) Get(id dtn.MessageID) *dtn.Message {
	if m := c.store.byID[id]; m != nil {
		return m
	}
	return c.cache.byID[id]
}

// Add places m into the Store, dropping the oldest Cache entry (or,
// with the Cache empty, the oldest Store entry) when full, or merges it
// into a held copy.
func (c *refCustody) Add(m *dtn.Message) (dropped *dtn.Message, merged bool) {
	if existing := c.Get(m.ID); existing != nil {
		existing.Flags |= m.Flags
		existing.UpdateDstLoc(m.DstLoc, m.DstLocTime, m.DstLocKnown)
		return nil, true
	}
	if c.capacity > 0 && c.Total() >= c.capacity {
		if len(c.cache.order) > 0 {
			dropped = c.cache.popOldest()
			delete(c.sentAt, dropped.ID)
		} else {
			dropped = c.store.popOldest()
		}
	}
	c.store.add(m)
	return dropped, false
}

// MarkSent moves a message from Store to Cache and reports whether it
// was in the Store.
func (c *refCustody) MarkSent(id dtn.MessageID, now float64) bool {
	m := c.store.remove(id)
	if m == nil {
		return false
	}
	c.cache.add(m)
	if c.sentAt == nil {
		c.sentAt = make(map[dtn.MessageID]float64)
	}
	c.sentAt[id] = now
	return true
}

// Ack removes a cached message, or returns nil when it is not cached.
func (c *refCustody) Ack(id dtn.MessageID) *dtn.Message {
	m := c.cache.remove(id)
	if m != nil {
		delete(c.sentAt, id)
	}
	return m
}

// ReturnToStore moves a cached message back to the Store, or returns
// nil when it is not cached.
func (c *refCustody) ReturnToStore(id dtn.MessageID) *dtn.Message {
	m := c.cache.remove(id)
	if m == nil {
		return nil
	}
	delete(c.sentAt, id)
	c.store.add(m)
	return m
}

// ExpireCache moves every cache entry sent at or before deadline back to
// the Store, oldest first, and returns the moved messages.
func (c *refCustody) ExpireCache(deadline float64) []*dtn.Message {
	var moved []*dtn.Message
	for _, m := range c.cache.messages() {
		if c.sentAt[m.ID] <= deadline {
			c.cache.remove(m.ID)
			delete(c.sentAt, m.ID)
			c.store.add(m)
			moved = append(moved, m)
		}
	}
	return moved
}

// Drain empties Store and Cache and returns what they held, Store then
// Cache, each oldest first.
func (c *refCustody) Drain() []*dtn.Message {
	out := append(c.store.messages(), c.cache.messages()...)
	c.store, c.cache = refBuffer{}, refBuffer{}
	clear(c.sentAt)
	return out
}

// recIDs returns the message ids of recs, in order.
func recIDs(recs []*copyRec) []dtn.MessageID {
	out := make([]dtn.MessageID, len(recs))
	for i, r := range recs {
		out[i] = r.msg.ID
	}
	return out
}

// msgIDs returns the ids of ms, in order.
func msgIDs(ms []*dtn.Message) []dtn.MessageID {
	out := make([]dtn.MessageID, len(ms))
	for i, m := range ms {
		out[i] = m.ID
	}
	return out
}

// checkCustodyTable decodes data into operations on a custodyTable of
// the given capacity and on the reference store refCustody, and fails
// at the first step where they part. The operations are adds of new
// and duplicate copies (flags and destination estimates drawn, so
// merges fold both), mark-sent, ack, return-to-store, expiry at a
// deadline (send times are whole steps, so a deadline ties with some),
// and drain. After every step it compares what the step dropped,
// merged, moved or released, the Store and Cache orders, the totals, and
// every held copy's message and area. The table's records come from a
// list that never reuses one: it overwrites each released record with
// poisonedRec, so a table that reads a record after its release parts
// from the reference.
func checkCustodyTable(t *testing.T, capacity int, data []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		v := data[0]
		data = data[1:]
		return int(v)
	}
	// Eight ids make merges and re-adds after a release common.
	nextID := func() dtn.MessageID { return dtn.MessageID{Src: next() % 2, Seq: next() % 4} }
	var released []dtn.MessageID
	var recs freelist.List[copyRec]
	recs.Poison = func(r *copyRec) {
		released = append(released, r.msg.ID)
		*r = poisonedRec()
	}
	tbl := custodyTable{capacity: capacity}
	ref := &refCustody{capacity: capacity}
	now := 0.0
	for step := 0; len(data) > 0; step++ {
		now++
		released = released[:0]
		var wantReleased []dtn.MessageID
		switch op := next() % 7; op {
		case 0, 1:
			v := next()
			m := dtn.Message{
				ID:          nextID(),
				Dst:         5,
				Flags:       dtn.TreeFlags(1 << (v % 5)),
				DstLoc:      geom.Pt(float64(v), float64(step)),
				DstLocTime:  float64(v % 8),
				DstLocKnown: v%3 != 0,
			}
			box := m
			dropped, merged := ref.Add(&box)
			before := tbl.get(m.ID)
			rec := tbl.add(&m, &recs)
			if (before != nil) != merged || merged && rec != before {
				t.Fatalf("step %d: add(%v) merged %v into %p, reference merged %v", step, m.ID, before != nil, rec, merged)
			}
			if rec != tbl.get(m.ID) {
				t.Fatalf("step %d: add(%v) returned a record the index does not hold", step, m.ID)
			}
			if dropped != nil {
				wantReleased = append(wantReleased, dropped.ID)
			}
		case 2:
			id := nextID()
			ok := ref.MarkSent(id, now)
			if rec := tbl.get(id); (rec != nil && !rec.cached) != ok {
				t.Fatalf("step %d: %v in the Store: table %v, reference %v", step, id, rec != nil && !rec.cached, ok)
			} else if ok {
				tbl.markSent(rec, now)
			}
		case 3:
			id := nextID()
			acked := ref.Ack(id) != nil
			if rec := tbl.get(id); (rec != nil && rec.cached) != acked {
				t.Fatalf("step %d: ack of %v: table cached %v, reference %v", step, id, rec != nil && rec.cached, acked)
			} else if acked {
				tbl.release(rec, &recs)
				wantReleased = append(wantReleased, id)
			}
		case 4:
			id := nextID()
			back := ref.ReturnToStore(id) != nil
			if rec := tbl.get(id); (rec != nil && rec.cached) != back {
				t.Fatalf("step %d: return of %v: table cached %v, reference %v", step, id, rec != nil && rec.cached, back)
			} else if back {
				tbl.returnToStore(rec)
			}
		case 5:
			deadline := now - float64(next()%6)
			want := msgIDs(ref.ExpireCache(deadline))
			if got := recIDs(tbl.expire(deadline, nil)); !slices.Equal(got, want) {
				t.Fatalf("step %d: expire(%v) moved %v, reference %v", step, deadline, got, want)
			}
		case 6:
			wantReleased = msgIDs(ref.Drain())
			tbl.drain(&recs)
		}
		if !slices.Equal(released, wantReleased) {
			t.Fatalf("step %d: released %v, reference dropped or acked %v", step, released, wantReleased)
		}
		if got, want := recIDs(tbl.store), ref.store.order; !slices.Equal(got, want) {
			t.Fatalf("step %d: Store %v, reference %v", step, got, want)
		}
		if got, want := recIDs(tbl.cache), ref.cache.order; !slices.Equal(got, want) {
			t.Fatalf("step %d: Cache %v, reference %v", step, got, want)
		}
		if tbl.total() != ref.Total() || len(tbl.byID) != ref.Total() {
			t.Fatalf("step %d: total %d, index %d, reference %d", step, tbl.total(), len(tbl.byID), ref.Total())
		}
		if capacity > 0 && tbl.total() > capacity {
			t.Fatalf("step %d: %d copies held over capacity %d", step, tbl.total(), capacity)
		}
		for _, area := range [][]*copyRec{tbl.store, tbl.cache} {
			for _, rec := range area {
				want := ref.Get(rec.msg.ID)
				if rec.msg != *want || tbl.get(rec.msg.ID) != rec {
					t.Fatalf("step %d: held %+v, reference %+v", step, rec.msg, *want)
				}
				if _, inCache := ref.cache.byID[rec.msg.ID]; rec.cached != inCache ||
					inCache && rec.sentAt != ref.sentAt[rec.msg.ID] {
					t.Fatalf("step %d: %v cached %v sent at %v, reference cached %v sent at %v",
						step, rec.msg.ID, rec.cached, rec.sentAt, inCache, ref.sentAt[rec.msg.ID])
				}
			}
		}
	}
}

// TestCustodyTableMatchesReference runs random operation sequences
// through checkCustodyTable at capacities 0 (unlimited) to 6.
func TestCustodyTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for capacity := 0; capacity <= 6; capacity++ {
		for trial := 0; trial < 40; trial++ {
			data := make([]byte, 600)
			rng.Read(data)
			checkCustodyTable(t, capacity, data)
		}
	}
}

// FuzzCustodyTable: the first byte picks the capacity (0 = unlimited,
// up to 6), the rest decode into checkCustodyTable's operations.
func FuzzCustodyTable(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 0, 2, 1, 0, 3, 0, 0, 4, 2, 0, 1, 5, 0, 1, 1, 6})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 1, 1, 0, 2, 2, 2, 0, 1, 1, 3, 1, 1})
	f.Add([]byte{0, 1, 9, 0, 1, 1, 9, 0, 1, 2, 0, 1, 1, 3, 0, 2, 5, 0, 2, 0, 3})
	f.Add([]byte{1, 0, 7, 1, 2, 2, 1, 2, 4, 1, 2, 0, 8, 0, 3, 5, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		checkCustodyTable(t, int(data[0]%7), data[1:])
	})
}
