package core

import (
	"math/rand"
	"slices"
	"testing"

	"glr/internal/dtn"
	"glr/internal/freelist"
)

func msg(src, seq int) *dtn.Message {
	return &dtn.Message{ID: dtn.MessageID{Src: src, Seq: seq}}
}

func TestCustodyLifecycle(t *testing.T) {
	c := custodyTable{capacity: 10}
	var recs freelist.List[copyRec]
	m := msg(1, 1)
	rec := c.add(m, &recs)
	if rec == nil || c.get(m.ID) != rec || &rec.msg == m || rec.msg != *m {
		t.Fatal("add should store a copy of m under its id")
	}
	if len(c.store) != 1 || len(c.cache) != 0 || c.total() != 1 {
		t.Fatalf("layout after add: store=%d cache=%d", len(c.store), len(c.cache))
	}
	c.markSent(rec, 5.0)
	if len(c.store) != 0 || len(c.cache) != 1 || !rec.cached || rec.sentAt != 5 {
		t.Fatal("copy should have moved to the cache, sent at 5")
	}
	c.release(rec, &recs)
	if c.total() != 0 || c.get(m.ID) != nil {
		t.Fatal("custody complete: nothing should be held")
	}
}

// An id the table never held, or one whose copy left, is unknown.
func TestCustodyAckUnknown(t *testing.T) {
	c := custodyTable{}
	var recs freelist.List[copyRec]
	if c.get(dtn.MessageID{Src: 9, Seq: 9}) != nil {
		t.Error("an empty table must know no message")
	}
	rec := c.add(msg(1, 1), &recs)
	c.markSent(rec, 0)
	c.release(rec, &recs)
	if c.get(dtn.MessageID{Src: 1, Seq: 1}) != nil || c.get(dtn.MessageID{Src: 9, Seq: 9}) != nil {
		t.Error("a released or never held message must be unknown")
	}
}

func TestCustodyExpireCache(t *testing.T) {
	c := custodyTable{}
	var recs freelist.List[copyRec]
	a, b := c.add(msg(1, 1), &recs), c.add(msg(1, 2), &recs)
	c.markSent(a, 1.0)
	c.markSent(b, 5.0)
	moved := c.expire(2.0, nil) // only a's send time ≤ 2
	if len(moved) != 1 || moved[0] != a || a.cached {
		t.Fatalf("moved = %v, want [a]", recIDs(moved))
	}
	if len(c.store) != 1 || len(c.cache) != 1 {
		t.Fatal("a back in store, b still cached")
	}
	// Re-send a: its timeout must run from the new send time.
	c.markSent(a, 6.0)
	if got := c.expire(2.0, nil); len(got) != 0 {
		t.Fatal("resent message must not expire against its old send time")
	}
	if got := recIDs(c.cache); !slices.Equal(got, []dtn.MessageID{b.msg.ID, a.msg.ID}) {
		t.Fatalf("cache = %v, want [b a]", got)
	}
}

func TestCustodyCacheDroppedFirst(t *testing.T) {
	c := custodyTable{capacity: 3}
	var recs freelist.List[copyRec]
	c.add(msg(0, 1), &recs)
	m2 := c.add(msg(0, 2), &recs)
	c.add(msg(0, 3), &recs)
	c.markSent(m2, 1.0) // cache: m2; store: m1, m3
	c.add(msg(0, 4), &recs)
	if c.get(dtn.MessageID{Src: 0, Seq: 2}) != nil {
		t.Fatal("the cache entry should be dropped first")
	}
	if c.total() != 3 || len(c.cache) != 0 {
		t.Fatalf("after drop: total=%d cache=%d", c.total(), len(c.cache))
	}
}

func TestCustodyStoreDroppedWhenCacheEmpty(t *testing.T) {
	c := custodyTable{capacity: 2}
	var recs freelist.List[copyRec]
	c.add(msg(0, 1), &recs)
	c.add(msg(0, 2), &recs)
	c.add(msg(0, 3), &recs)
	want := []dtn.MessageID{{Src: 0, Seq: 2}, {Src: 0, Seq: 3}}
	if got := recIDs(c.store); !slices.Equal(got, want) {
		t.Fatalf("store = %v, want the oldest entry dropped: %v", got, want)
	}
}

func TestCustodyMergeDuplicates(t *testing.T) {
	c := custodyTable{capacity: 1}
	var recs freelist.List[copyRec]
	m := msg(1, 1)
	m.Flags = dtn.FlagMax
	rec := c.add(m, &recs)
	dup := msg(1, 1)
	dup.Flags = dtn.FlagMid
	if c.add(dup, &recs) != rec || c.total() != 1 {
		t.Fatal("a duplicate must merge into the held copy without dropping anything")
	}
	if got := rec.msg.Flags; got != dtn.FlagMax|dtn.FlagMid {
		t.Errorf("flags = %v, want max|mid", got)
	}
	// Also merge into a cached copy.
	c.markSent(rec, 1)
	dup2 := msg(1, 1)
	dup2.Flags = dtn.FlagMin
	if c.add(dup2, &recs) != rec || !rec.msg.Flags.Has(dtn.FlagMin) || !rec.cached {
		t.Error("merge should reach cached copies too, leaving them cached")
	}
	if c.total() != 1 {
		t.Errorf("total = %d, want 1", c.total())
	}
}

func TestCustodyUnlimited(t *testing.T) {
	c := custodyTable{}
	var recs freelist.List[copyRec]
	for i := 0; i < 500; i++ {
		c.add(msg(0, i), &recs)
	}
	if c.total() != 500 {
		t.Errorf("total = %d", c.total())
	}
}

// Property: total never exceeds capacity; Store/Cache membership is
// disjoint and matches each record's area; every added message is held,
// dropped, or acked.
func TestCustodyInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		capn := 1 + rng.Intn(8)
		c := custodyTable{capacity: capn}
		var recs freelist.List[copyRec]
		live := make(map[dtn.MessageID]bool)
		for op := 0; op < 300; op++ {
			id := dtn.MessageID{Src: 0, Seq: rng.Intn(20)}
			rec := c.get(id)
			switch rng.Intn(4) {
			case 0:
				c.add(&dtn.Message{ID: id}, &recs)
				live[id] = true
				for held := range live {
					if c.get(held) == nil {
						delete(live, held) // dropped
					}
				}
			case 1:
				if rec != nil && !rec.cached {
					c.markSent(rec, float64(op))
				}
			case 2:
				if rec != nil && rec.cached {
					c.release(rec, &recs)
					delete(live, id)
				}
			case 3:
				c.expire(float64(op)-10, nil)
			}
			if c.total() > capn {
				t.Fatalf("capacity violated: %d > %d", c.total(), capn)
			}
			for _, r := range c.store {
				if r.cached {
					t.Fatalf("Store holds cached %v", r.msg.ID)
				}
			}
			for _, r := range c.cache {
				if !r.cached {
					t.Fatalf("Cache holds uncached %v", r.msg.ID)
				}
			}
			if len(live) != c.total() || len(c.byID) != c.total() {
				t.Fatalf("live set %d, index %d, total %d", len(live), len(c.byID), c.total())
			}
		}
	}
}

func TestCustodyReturnToStore(t *testing.T) {
	c := custodyTable{}
	var recs freelist.List[copyRec]
	rec := c.add(msg(1, 1), &recs)
	c.markSent(rec, 5)
	c.returnToStore(rec)
	if len(c.store) != 1 || len(c.cache) != 0 || rec.cached {
		t.Error("message should be back in the Store")
	}
	// An immediate expire sweep with a late deadline must not move it
	// again.
	if moved := c.expire(100, nil); len(moved) != 0 {
		t.Error("nothing should remain cached")
	}
}

// expire appends to the caller's scratch after what it already holds,
// and reuses its storage: a warm sweep allocates nothing.
func TestCustodyExpireCacheScratch(t *testing.T) {
	c := custodyTable{}
	var recs freelist.List[copyRec]
	var held []*copyRec
	for i := range 3 {
		rec := c.add(msg(1, i+1), &recs)
		c.markSent(rec, float64(i))
		held = append(held, rec)
	}
	keep := &copyRec{msg: *msg(9, 9)}
	got := c.expire(1, []*copyRec{keep})
	if len(got) != 3 || got[0] != keep || got[1] != held[0] || got[2] != held[1] {
		t.Fatalf("expire = %v, want [keep m1.1 m1.2]", recIDs(got))
	}
	if len(c.store) != 2 || len(c.cache) != 1 {
		t.Fatalf("store=%d cache=%d, want 2 and 1", len(c.store), len(c.cache))
	}
	scratch := make([]*copyRec, 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		for _, rec := range c.expire(10, scratch[:0]) {
			c.markSent(rec, 0)
		}
	})
	if allocs != 0 {
		t.Errorf("warm expire allocates %v times per sweep, want 0", allocs)
	}
}

// drain hands back every record, Store then Cache oldest-first, and
// leaves an empty table that works as new.
func TestCustodyDrain(t *testing.T) {
	c := custodyTable{capacity: 2}
	var recs freelist.List[copyRec]
	var released []dtn.MessageID
	recs.Poison = func(r *copyRec) { released = append(released, r.msg.ID) }
	a := c.add(msg(1, 1), &recs)
	c.add(msg(1, 2), &recs)
	c.markSent(a, 1)
	c.drain(&recs)
	if want := []dtn.MessageID{{Src: 1, Seq: 2}, {Src: 1, Seq: 1}}; !slices.Equal(released, want) {
		t.Fatalf("drain released %v, want %v", released, want)
	}
	if c.total() != 0 || c.get(dtn.MessageID{Src: 1, Seq: 1}) != nil || c.get(dtn.MessageID{Src: 1, Seq: 2}) != nil {
		t.Fatalf("table not empty after drain: total %d", c.total())
	}
	if moved := c.expire(100, nil); len(moved) != 0 {
		t.Fatalf("drained cache still expires %v", recIDs(moved))
	}
	if rec := c.add(msg(1, 1), &recs); rec.cached || rec.msgState != (msgState{}) || c.total() != 1 {
		t.Fatal("a drained table must take a fresh copy with zero state")
	}
}
