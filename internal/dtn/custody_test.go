package dtn

import (
	"math/rand"
	"testing"
)

func TestCustodyLifecycle(t *testing.T) {
	c := NewCustodyStore(10)
	m := msg(1, 1)
	if dropped, merged := c.Add(m); dropped != nil || merged {
		t.Fatal("add should store m without drops or a merge")
	}
	if c.StoreLen() != 1 || c.CacheLen() != 0 || c.Total() != 1 {
		t.Fatalf("layout after add: store=%d cache=%d", c.StoreLen(), c.CacheLen())
	}
	if !c.MarkSent(m.ID, 5.0) {
		t.Fatal("MarkSent should find the stored message")
	}
	if c.StoreLen() != 0 || c.CacheLen() != 1 {
		t.Fatal("message should have moved to cache")
	}
	if got := c.Ack(m.ID); got != m {
		t.Fatal("Ack should release the cached message")
	}
	if c.Total() != 0 {
		t.Fatal("custody complete: nothing should be held")
	}
}

func TestCustodyAckUnknown(t *testing.T) {
	c := NewCustodyStore(0)
	if c.Ack(MessageID{9, 9}) != nil {
		t.Error("ack of unknown message should return nil")
	}
	if c.MarkSent(MessageID{9, 9}, 0) {
		t.Error("MarkSent of unknown message should report false")
	}
}

func TestCustodyExpireCache(t *testing.T) {
	c := NewCustodyStore(0)
	a, b := msg(1, 1), msg(1, 2)
	c.Add(a)
	c.Add(b)
	c.MarkSent(a.ID, 1.0)
	c.MarkSent(b.ID, 5.0)
	moved := c.ExpireCache(2.0, nil) // only a's send time ≤ 2
	if len(moved) != 1 || moved[0] != a {
		t.Fatalf("moved = %v, want [a]", moved)
	}
	if c.StoreLen() != 1 || c.CacheLen() != 1 {
		t.Fatal("a back in store, b still cached")
	}
	// Re-send a and ack it: timeout bookkeeping must have been refreshed.
	c.MarkSent(a.ID, 6.0)
	if got := c.ExpireCache(2.0, nil); len(got) != 0 {
		t.Fatal("resent message must not expire against its old send time")
	}
	if c.Ack(a.ID) != a {
		t.Fatal("ack after resend should work")
	}
}

func TestCustodyCacheDroppedFirst(t *testing.T) {
	c := NewCustodyStore(3)
	m1, m2, m3 := msg(0, 1), msg(0, 2), msg(0, 3)
	c.Add(m1)
	c.Add(m2)
	c.Add(m3)
	c.MarkSent(m2.ID, 1.0) // cache: m2; store: m1, m3
	dropped, _ := c.Add(msg(0, 4))
	if dropped == nil || dropped.ID != m2.ID {
		t.Fatalf("cache entry should be dropped first, got %v", dropped)
	}
	if c.Total() != 3 || c.CacheLen() != 0 {
		t.Fatalf("after drop: total=%d cache=%d", c.Total(), c.CacheLen())
	}
}

func TestCustodyStoreDroppedWhenCacheEmpty(t *testing.T) {
	c := NewCustodyStore(2)
	m1, m2 := msg(0, 1), msg(0, 2)
	c.Add(m1)
	c.Add(m2)
	dropped, _ := c.Add(msg(0, 3))
	if dropped == nil || dropped.ID != m1.ID {
		t.Fatalf("oldest store entry should drop, got %v", dropped)
	}
}

func TestCustodyMergeDuplicates(t *testing.T) {
	c := NewCustodyStore(1)
	m := msg(1, 1)
	m.Flags = FlagMax
	c.Add(m)
	dup := msg(1, 1)
	dup.Flags = FlagMid
	dropped, merged := c.Add(dup)
	if dropped != nil || !merged {
		t.Fatal("a duplicate must merge without dropping anything")
	}
	if got := c.Get(m.ID).Flags; got != FlagMax|FlagMid {
		t.Errorf("flags = %v, want max|mid", got)
	}
	// Also merge into a cached copy.
	c.MarkSent(m.ID, 1)
	dup2 := msg(1, 1)
	dup2.Flags = FlagMin
	c.Add(dup2)
	if got := c.Get(m.ID).Flags; !got.Has(FlagMin) {
		t.Error("merge should reach cached copies too")
	}
	if c.Total() != 1 {
		t.Errorf("Total = %d, want 1", c.Total())
	}
}

func TestCustodyUnlimited(t *testing.T) {
	c := NewCustodyStore(0)
	for i := 0; i < 500; i++ {
		if dropped, _ := c.Add(msg(0, i)); dropped != nil {
			t.Fatal("unlimited custody store must not drop")
		}
	}
	if c.Total() != 500 {
		t.Errorf("Total = %d", c.Total())
	}
}

// Property: Total never exceeds capacity; Store/Cache membership is
// disjoint; every added message is held, dropped, or acked.
func TestCustodyInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		capn := 1 + rng.Intn(8)
		c := NewCustodyStore(capn)
		live := make(map[MessageID]bool)
		for op := 0; op < 300; op++ {
			id := MessageID{Src: 0, Seq: rng.Intn(20)}
			switch rng.Intn(4) {
			case 0:
				dropped, _ := c.Add(&Message{ID: id})
				live[id] = true
				if dropped != nil {
					delete(live, dropped.ID)
				}
			case 1:
				c.MarkSent(id, float64(op))
			case 2:
				if c.Ack(id) != nil {
					delete(live, id)
				}
			case 3:
				c.ExpireCache(float64(op)-10, nil)
			}
			if capn > 0 && c.Total() > capn {
				t.Fatalf("capacity violated: %d > %d", c.Total(), capn)
			}
			if c.StoreLen()+c.CacheLen() != c.Total() {
				t.Fatal("store/cache accounting inconsistent")
			}
			for id := range live {
				if !c.Has(id) {
					t.Fatalf("live message %v lost", id)
				}
			}
			if len(live) != c.Total() {
				t.Fatalf("live set %d != total %d", len(live), c.Total())
			}
		}
	}
}

func TestCustodyReturnToStore(t *testing.T) {
	c := NewCustodyStore(0)
	m := msg(1, 1)
	c.Add(m)
	if c.ReturnToStore(m.ID) != nil {
		t.Error("ReturnToStore of a non-cached message should be nil")
	}
	c.MarkSent(m.ID, 5)
	got := c.ReturnToStore(m.ID)
	if got != m {
		t.Fatal("ReturnToStore should move the cached message back")
	}
	if c.StoreLen() != 1 || c.CacheLen() != 0 {
		t.Error("message should be back in the Store")
	}
	// The old send timestamp must be gone: an immediate expire sweep
	// with a late deadline must not double-move anything.
	if moved := c.ExpireCache(100, nil); len(moved) != 0 {
		t.Error("nothing should remain cached")
	}
}

// ExpireCache appends to the caller's scratch after what it already
// holds, and reuses its storage: a warm sweep allocates nothing.
func TestCustodyExpireCacheScratch(t *testing.T) {
	c := NewCustodyStore(0)
	msgs := []*Message{msg(1, 1), msg(1, 2), msg(1, 3)}
	for i, m := range msgs {
		c.Add(m)
		c.MarkSent(m.ID, float64(i))
	}
	keep := msg(9, 9)
	got := c.ExpireCache(1, []*Message{keep})
	if len(got) != 3 || got[0] != keep || got[1] != msgs[0] || got[2] != msgs[1] {
		t.Fatalf("ExpireCache = %v, want [keep m1.1 m1.2]", got)
	}
	if c.StoreLen() != 2 || c.CacheLen() != 1 {
		t.Fatalf("store=%d cache=%d, want 2 and 1", c.StoreLen(), c.CacheLen())
	}
	scratch := make([]*Message, 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		for _, m := range c.ExpireCache(10, scratch[:0]) {
			c.MarkSent(m.ID, 0)
		}
	})
	if allocs != 0 {
		t.Errorf("warm ExpireCache allocates %v times per sweep, want 0", allocs)
	}
}

// Drain hands back every held message, Store then Cache oldest-first,
// and leaves an empty store that works as new.
func TestCustodyDrain(t *testing.T) {
	c := NewCustodyStore(2)
	a, b := msg(1, 1), msg(1, 2)
	c.Add(a)
	c.Add(b)
	c.MarkSent(a.ID, 1)
	got := c.Drain(nil)
	if len(got) != 2 || got[0] != b || got[1] != a {
		t.Fatalf("Drain = %v, want [b a]", got)
	}
	if c.Total() != 0 || c.Has(a.ID) || c.Has(b.ID) {
		t.Fatalf("store not empty after Drain: total %d", c.Total())
	}
	if moved := c.ExpireCache(100, nil); len(moved) != 0 {
		t.Fatalf("drained cache still expires %v", moved)
	}
	if dropped, merged := c.Add(a); dropped != nil || merged {
		t.Fatal("a drained store must take a fresh message")
	}
}
