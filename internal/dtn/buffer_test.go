package dtn

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
)

func msg(src, seq int) *Message {
	return &Message{ID: MessageID{Src: src, Seq: seq}}
}

func TestBufferFIFOEviction(t *testing.T) {
	b := NewBuffer(3)
	for i := 0; i < 3; i++ {
		if ev, ok := b.Add(msg(0, i)); ev != nil || !ok {
			t.Fatalf("unexpected eviction at %d", i)
		}
	}
	ev, ok := b.Add(msg(0, 3))
	if !ok || ev == nil || ev.ID != (MessageID{0, 0}) {
		t.Fatalf("expected eviction of oldest, got %v", ev)
	}
	if b.Len() != 3 || b.Has(MessageID{0, 0}) {
		t.Error("buffer should hold the 3 newest messages")
	}
	want := []MessageID{{0, 1}, {0, 2}, {0, 3}}
	for i, id := range b.order {
		if id != want[i] {
			t.Errorf("order[%d] = %v, want %v", i, id, want[i])
		}
	}
}

func TestBufferUnlimited(t *testing.T) {
	b := NewBuffer(0)
	for i := 0; i < 1000; i++ {
		if ev, _ := b.Add(msg(0, i)); ev != nil {
			t.Fatal("unlimited buffer must never evict")
		}
	}
	if b.Len() != 1000 {
		t.Errorf("Len = %d, want 1000", b.Len())
	}
	if NewBuffer(-5).capacity != 0 {
		t.Error("negative capacity should normalize to unlimited")
	}
}

func TestBufferMergeFlags(t *testing.T) {
	b := NewBuffer(2)
	m1 := msg(1, 1)
	m1.Flags = FlagMax
	b.Add(m1)
	m2 := msg(1, 1)
	m2.Flags = FlagMin
	ev, ok := b.Add(m2)
	if ev != nil || !ok {
		t.Fatal("merging a duplicate must not evict")
	}
	if b.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after merge", b.Len())
	}
	if got := b.Get(MessageID{1, 1}).Flags; got != FlagMax|FlagMin {
		t.Errorf("merged flags = %v, want max|min", got)
	}
}

func TestBufferRemove(t *testing.T) {
	b := NewBuffer(5)
	b.Add(msg(0, 0))
	b.Add(msg(0, 1))
	if m := b.Remove(MessageID{0, 0}); m == nil {
		t.Fatal("remove should return the message")
	}
	if b.Remove(MessageID{0, 0}) != nil {
		t.Error("double remove should return nil")
	}
	if b.Len() != 1 {
		t.Errorf("Len = %d, want 1", b.Len())
	}
}

func TestBufferRemoveReAddKeepsFIFOExact(t *testing.T) {
	b := NewBuffer(3)
	b.Add(msg(0, 0))
	b.Add(msg(0, 1))
	b.Add(msg(0, 2))
	// Re-adding 0 after removal makes it the NEWEST.
	b.Remove(MessageID{0, 0})
	b.Add(msg(0, 0))
	ev, _ := b.Add(msg(0, 3))
	if ev == nil || ev.ID != (MessageID{0, 1}) {
		t.Errorf("eviction order wrong after re-add: evicted %v, want m0.1", ev)
	}
}

func TestBufferMessagesOrder(t *testing.T) {
	b := NewBuffer(0)
	for i := 0; i < 10; i++ {
		b.Add(msg(0, i))
	}
	b.Remove(MessageID{0, 5})
	msgs := b.Messages()
	if len(msgs) != 9 {
		t.Fatalf("got %d messages", len(msgs))
	}
	prev := -1
	for _, m := range msgs {
		if m.ID.Seq <= prev {
			t.Fatal("messages not in insertion order")
		}
		prev = m.ID.Seq
	}
}

// Property: buffer never exceeds capacity, and total added = held +
// evicted + removed.
func TestBufferConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		capn := 1 + rng.Intn(10)
		b := NewBuffer(capn)
		added, evicted, removed, merged := 0, 0, 0, 0
		for op := 0; op < 200; op++ {
			id := MessageID{Src: 0, Seq: rng.Intn(30)}
			if rng.Intn(2) == 0 {
				if b.Has(id) {
					merged++
				} else {
					added++
				}
				if ev, _ := b.Add(&Message{ID: id}); ev != nil {
					evicted++
				}
			} else if b.Remove(id) != nil {
				removed++
			}
			if b.Len() > capn {
				t.Fatalf("buffer exceeded capacity: %d > %d", b.Len(), capn)
			}
		}
		if added != b.Len()+evicted+removed {
			t.Fatalf("conservation violated: added=%d held=%d evicted=%d removed=%d",
				added, b.Len(), evicted, removed)
		}
	}
}

func TestSummaryVector(t *testing.T) {
	b := NewBuffer(0)
	b.Add(msg(2, 2))
	b.Add(msg(1, 1))
	sv := b.Summary()
	if want := (SummaryVector{{1, 1}, {2, 2}}); !slices.Equal(sv, want) {
		t.Errorf("Summary = %v, want %v", sv, want)
	}
	other := NewBuffer(0)
	other.Add(msg(9, 9))
	other.Add(msg(2, 2))
	if got := slices.Collect(b.Lacks(other.Summary())); !slices.Equal(got, []MessageID{{9, 9}}) {
		t.Errorf("Lacks = %v, want [m9.9]", got)
	}
	if got := slices.Collect(other.Lacks(sv)); !slices.Equal(got, []MessageID{{1, 1}}) {
		t.Errorf("reverse Lacks = %v, want [m1.1]", got)
	}
	if again := b.Summary(); &again[0] != &sv[0] {
		t.Error("an unchanged buffer must share its summary snapshot")
	}
}

// refSummarySet is the map-set summary vector the sorted SummaryVector
// replaced, kept as the oracle: a FIFO buffer's held ids as a set.
type refSummarySet struct {
	capacity int
	order    []MessageID
	set      map[MessageID]struct{}
}

func (r *refSummarySet) add(id MessageID) (evicted MessageID, ok bool) {
	if _, held := r.set[id]; held {
		return MessageID{}, false
	}
	if r.capacity > 0 && len(r.set) >= r.capacity {
		evicted, ok = r.order[0], true
		r.remove(evicted)
	}
	r.order = append(r.order, id)
	r.set[id] = struct{}{}
	return evicted, ok
}

func (r *refSummarySet) remove(id MessageID) {
	delete(r.set, id)
	r.order = slices.DeleteFunc(r.order, func(o MessageID) bool { return o == id })
}

// sorted returns the held ids in canonical order.
func (r *refSummarySet) sorted() []MessageID {
	out := make([]MessageID, 0, len(r.set))
	for id := range r.set {
		out = append(out, id)
	}
	slices.SortFunc(out, MessageID.Compare)
	return out
}

// missing returns the ids of peer not held, in canonical order: the set
// difference the map-era SummaryVector.Missing computed, sorted the way
// the epidemic receiver sorted it.
func (r *refSummarySet) missing(peer map[MessageID]struct{}) []MessageID {
	var out []MessageID
	for id := range peer {
		if _, held := r.set[id]; !held {
			out = append(out, id)
		}
	}
	slices.SortFunc(out, MessageID.Compare)
	return out
}

// checkBufferSummary decodes data into Add, Remove, snapshot and diff
// operations on a buffer of the given capacity. After every step it
// checks Summary against the map-set reference and every snapshot taken
// earlier against its contents when taken: frames
// carrying a summary sit in MAC queues while the buffer keeps changing.
func checkBufferSummary(t *testing.T, capacity int, data []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		v := data[0]
		data = data[1:]
		return int(v)
	}
	// A small id space makes re-insertion after removal or eviction common.
	nextID := func() MessageID { v := next(); return MessageID{Src: v % 3, Seq: v / 3 % 8} }
	b := NewBuffer(capacity)
	ref := &refSummarySet{capacity: capacity, set: make(map[MessageID]struct{})}
	type snapshot struct{ sv, want SummaryVector }
	var snaps []snapshot
	for step := 0; len(data) > 0; step++ {
		switch next() % 4 {
		case 0, 1:
			id := nextID()
			wantEv, wantOK := ref.add(id)
			ev, _ := b.Add(msg(id.Src, id.Seq))
			if (ev != nil) != wantOK || ev != nil && ev.ID != wantEv {
				t.Fatalf("step %d: Add(%v) evicted %v, want %v (%v)", step, id, ev, wantEv, wantOK)
			}
		case 2:
			id := nextID()
			ref.remove(id)
			b.Remove(id)
		case 3:
			sv := b.Summary()
			snaps = append(snaps, snapshot{sv, slices.Clone(sv)})
			peer := make(map[MessageID]struct{})
			for k := next() % 6; k > 0; k-- {
				peer[nextID()] = struct{}{}
			}
			peerSV := SummaryVector(slices.SortedFunc(maps.Keys(peer), MessageID.Compare))
			if got, want := slices.Collect(b.Lacks(peerSV)), ref.missing(peer); !slices.Equal(got, want) {
				t.Fatalf("step %d: Lacks(%v) = %v, want %v", step, peerSV, got, want)
			}
		}
		want := ref.sorted()
		if got := b.Summary(); !slices.Equal(got, want) {
			t.Fatalf("step %d: Summary = %v, want %v", step, got, want)
		}
		for i, s := range snaps {
			if !slices.Equal(s.sv, s.want) {
				t.Fatalf("step %d: snapshot %d changed to %v, taken as %v", step, i, s.sv, s.want)
			}
		}
	}
}

// TestBufferSummaryRefEquivalence runs random operation sequences through
// checkBufferSummary, from capacity-1 churn to an unlimited buffer.
func TestBufferSummaryRefEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, capacity := range []int{1, 2, 5, 0} {
		for trial := 0; trial < 40; trial++ {
			data := make([]byte, 300)
			rng.Read(data)
			checkBufferSummary(t, capacity, data)
		}
	}
}

// FuzzBufferSummary: the first byte picks the capacity (0 = unlimited),
// the rest decode into checkBufferSummary's operations.
func FuzzBufferSummary(f *testing.F) {
	f.Add([]byte{1, 0, 4, 0, 7, 3, 2, 2, 4, 0, 4, 3, 3, 4, 7, 1})
	f.Add([]byte{0, 0, 1, 1, 2, 0, 3, 3, 0, 2, 1, 3, 5, 0, 1, 2, 3, 4})
	f.Add([]byte{3, 0, 9, 0, 10, 0, 11, 0, 12, 2, 10, 3, 2, 9, 12, 0, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		checkBufferSummary(t, int(data[0]%4), data[1:])
	})
}
