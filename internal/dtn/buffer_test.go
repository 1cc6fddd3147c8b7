package dtn

import (
	"iter"
	"maps"
	"math"
	"math/bits"
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
		if _, ok := b.Add(msg(0, i)); ok {
			t.Fatalf("unexpected eviction at %d", i)
		}
	}
	ev, ok := b.Add(msg(0, 3))
	if !ok || ev != (MessageID{0, 0}) {
		t.Fatalf("expected eviction of oldest, got %v (%v)", ev, ok)
	}
	if b.Len() != 3 || b.Has(MessageID{0, 0}) {
		t.Error("buffer should hold the 3 newest messages")
	}
	want := []MessageID{{0, 1}, {0, 2}, {0, 3}}
	for i, m := range b.order {
		if m.ID != want[i] {
			t.Errorf("order[%d] = %v, want %v", i, m.ID, want[i])
		}
	}
}

func TestBufferUnlimited(t *testing.T) {
	b := NewBuffer(0)
	for i := 0; i < 1000; i++ {
		if _, ok := b.Add(msg(0, i)); ok {
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
	if _, ok := b.Add(m2); ok {
		t.Fatal("merging a duplicate must not evict")
	}
	if b.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after merge", b.Len())
	}
	if got := b.Get(MessageID{1, 1}).Flags; got != FlagMax|FlagMin {
		t.Errorf("merged flags = %v, want max|min", got)
	}
}

// Add keeps a copy of its own: the caller's message stays the caller's,
// and the box of an evicted or drained copy holds the next copy added.
func TestBufferAddCopiesIn(t *testing.T) {
	b := NewBuffer(1)
	m := msg(0, 0)
	b.Add(m)
	m.Hops = 7
	held := b.Get(m.ID)
	if held == m || held.Hops != 0 {
		t.Fatalf("the buffer holds the caller's box or sees its change (hops %d)", held.Hops)
	}
	b.Add(msg(0, 1)) // evicts m0.0
	if b.Get(MessageID{0, 1}) != held {
		t.Error("the evicted copy's box was not reused by the next Add")
	}
	b.Drain()
	if b.Len() != 0 || b.Has(MessageID{0, 1}) {
		t.Fatalf("drained buffer holds %d messages", b.Len())
	}
	b.Add(msg(0, 2))
	if b.Get(MessageID{0, 2}) != held {
		t.Error("the drained copy's box was not reused by the next Add")
	}
}

func TestBufferRemoveReAddKeepsFIFOExact(t *testing.T) {
	b := NewBuffer(3)
	b.Add(msg(0, 0))
	b.Add(msg(0, 1))
	b.Add(msg(0, 2))
	// Eviction removes 0; re-adding it makes it the NEWEST.
	steps := []struct{ add, evicted MessageID }{
		{MessageID{0, 3}, MessageID{0, 0}},
		{MessageID{0, 0}, MessageID{0, 1}},
		{MessageID{0, 4}, MessageID{0, 2}},
		{MessageID{0, 5}, MessageID{0, 3}},
		{MessageID{0, 6}, MessageID{0, 0}},
	}
	for _, st := range steps {
		if ev, ok := b.Add(&Message{ID: st.add}); !ok || ev != st.evicted {
			t.Fatalf("Add(%v) evicted %v (%v), want %v", st.add, ev, ok, st.evicted)
		}
	}
}

func TestBufferMessagesOrder(t *testing.T) {
	b := NewBuffer(5)
	for i := 0; i < 10; i++ {
		b.Add(msg(0, i))
	}
	if len(b.order) != 5 {
		t.Fatalf("got %d messages", len(b.order))
	}
	for i, m := range b.order {
		if m.ID.Seq != 5+i {
			t.Fatalf("order[%d] = %v: messages not in insertion order", i, m.ID)
		}
	}
}

// Property: buffer never exceeds capacity, and total added = held +
// evicted + drained.
func TestBufferConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		capn := 1 + rng.Intn(10)
		b := NewBuffer(capn)
		added, evicted, drained := 0, 0, 0
		for op := 0; op < 200; op++ {
			id := MessageID{Src: 0, Seq: rng.Intn(30)}
			if rng.Intn(20) > 0 {
				if !b.Has(id) {
					added++
				}
				if _, ok := b.Add(&Message{ID: id}); ok {
					evicted++
				}
			} else {
				drained += b.Len()
				b.Drain()
			}
			if b.Len() > capn {
				t.Fatalf("buffer exceeded capacity: %d > %d", b.Len(), capn)
			}
		}
		if added != b.Len()+evicted+drained {
			t.Fatalf("conservation violated: added=%d held=%d evicted=%d drained=%d",
				added, b.Len(), evicted, drained)
		}
	}
}

func TestSummaryVector(t *testing.T) {
	ranks := NewMessageRanks([]int{0, 3, 3})
	var s RankSet
	s.Add(ranks.Rank(MessageID{2, 2}))
	s.Add(ranks.Rank(MessageID{1, 1}))
	sv := s.Summary()
	if got, want := members(ranks, sv), []MessageID{{1, 1}, {2, 2}}; !slices.Equal(got, want) || sv.Len() != 2 {
		t.Errorf("Summary = %v (Len %d), want %v", got, sv.Len(), want)
	}
	var other RankSet
	other.Add(ranks.Rank(MessageID{2, 0}))
	other.Add(ranks.Rank(MessageID{2, 2}))
	if got := lacks(ranks, &s, other.Summary()); !slices.Equal(got, []MessageID{{2, 0}}) {
		t.Errorf("Lacks = %v, want [m2.0]", got)
	}
	if got := lacks(ranks, &other, sv); !slices.Equal(got, []MessageID{{1, 1}}) {
		t.Errorf("reverse Lacks = %v, want [m1.1]", got)
	}
	if again := s.Summary(); &again.words[0] != &sv.words[0] {
		t.Error("an unchanged set must share its summary snapshot")
	}
	s.Add(ranks.Rank(MessageID{1, 1}))
	if &s.Summary().words[0] != &sv.words[0] {
		t.Error("re-adding a held rank must keep the snapshot")
	}
}

func TestMessageRanks(t *testing.T) {
	ranks := NewMessageRanks([]int{2, 0, 3})
	want := []MessageID{{0, 0}, {0, 1}, {2, 0}, {2, 1}, {2, 2}}
	for r, id := range want {
		if got := ranks.Rank(id); got != r {
			t.Errorf("Rank(%v) = %d, want %d", id, got, r)
		}
		if got := ranks.ID(r); got != id {
			t.Errorf("ID(%d) = %v, want %v", r, got, id)
		}
	}
	for _, id := range []MessageID{{0, 2}, {1, 0}, {2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Rank(%v) of an unplanned message did not panic", id)
				}
			}()
			ranks.Rank(id)
		}()
	}
}

// members decodes sv bit by bit into ids, in rank order.
func members(ranks *MessageRanks, sv SummaryVector) []MessageID {
	var out []MessageID
	for w, word := range sv.words {
		for b := 0; b < 64; b++ {
			if word&(1<<b) != 0 {
				out = append(out, ranks.ID(w*64+b))
			}
		}
	}
	return out
}

// lacks collects s.Lacks(sv) as ids.
func lacks(ranks *MessageRanks, s *RankSet, sv SummaryVector) []MessageID {
	var out []MessageID
	for r := range s.Lacks(sv) {
		out = append(out, ranks.ID(r))
	}
	return out
}

// sortedSummary is the summary vector the rank bitmap replaced, kept as
// the oracle: the held ids sorted in the canonical (Src, Seq) order
// without duplicates.
type sortedSummary []MessageID

// insert adds id, keeping the order.
func (s sortedSummary) insert(id MessageID) sortedSummary {
	i, found := slices.BinarySearchFunc(s, id, MessageID.Compare)
	if found {
		return s
	}
	return slices.Insert(s, i, id)
}

// delete removes id if held.
func (s sortedSummary) delete(id MessageID) sortedSummary {
	i, found := slices.BinarySearchFunc(s, id, MessageID.Compare)
	if !found {
		return s
	}
	return slices.Delete(s, i, i+1)
}

// lacks yields, in canonical order, the ids of sv that s does not
// hold: one merge walk over the two sorted vectors.
func (s sortedSummary) lacks(sv sortedSummary) iter.Seq[MessageID] {
	return func(yield func(MessageID) bool) {
		j := 0
		for _, id := range sv {
			for j < len(s) && s[j].Compare(id) < 0 {
				j++
			}
			if j < len(s) && s[j] == id {
				j++ // sv holds id once
				continue
			}
			if !yield(id) {
				return
			}
		}
	}
}

// refSummarySet is the map-set summary vector the sorted summary
// replaced, kept as a second oracle: a FIFO buffer's held ids as a set.
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

// poisonedMessage is what the poisoned free list of checkBufferSummary's
// buffer overwrites a released box with: values no held copy has.
func poisonedMessage() Message {
	nan := math.NaN()
	return Message{
		ID:          MessageID{Src: -1, Seq: -1},
		Dst:         -1,
		Created:     nan,
		PayloadBits: -1,
		Hops:        -1,
		Flags:       0xff,
		DstLocTime:  nan,
		DstLocKnown: true,
	}
}

// summaryRanks ranks the ids checkBufferSummary draws (Src 0–2, Seq
// 0–7) over two bitmap words: source 1 plans 64 messages, so source 2's
// ranks are 72–79.
var summaryRanks = NewMessageRanks([]int{8, 64, 8})

// checkBufferSummary decodes data into Add, Get, snapshot-and-diff and
// Restart operations on a buffer of the given capacity, with a rank set
// kept in step with it the way the epidemic protocol keeps one: a
// stored message's rank joins the set, an evicted one's leaves, a
// restart drains the buffer (its copies oldest-first, checked against
// the map-set oracle's order) and empties the set. The buffer's free
// list never reuses a box: it overwrites each one released with
// poisonedMessage, so a copy read after its eviction or drain reads
// poison, and a Get that still finds one fails the check. After every
// step it checks the set's summary against the sorted-vector and
// map-set oracles, its Has against the buffer's for every drawable id,
// the buffer's Len, and every snapshot taken earlier against its
// contents when taken: frames carrying a summary sit in MAC queues
// while the buffer keeps changing. Each diff is checked, in order,
// against the merge walk and the map-set difference.
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
	rank := summaryRanks.Rank
	b := NewBuffer(capacity)
	b.boxes.Poison = func(m *Message) { *m = poisonedMessage() }
	var have RankSet
	var oracle sortedSummary
	ref := &refSummarySet{capacity: capacity, set: make(map[MessageID]struct{})}
	type snapshot struct {
		sv   SummaryVector
		want []uint64 // sv's words when taken
	}
	var snaps []snapshot
	for step := 0; len(data) > 0; step++ {
		switch next() % 5 {
		case 0, 1:
			id := nextID()
			wantEv, wantOK := ref.add(id)
			ev, ok := b.Add(msg(id.Src, id.Seq))
			if ok != wantOK || ok && ev != wantEv {
				t.Fatalf("step %d: Add(%v) evicted %v (%v), want %v (%v)", step, id, ev, ok, wantEv, wantOK)
			}
			if ok {
				have.Remove(rank(ev))
				oracle = oracle.delete(ev)
			}
			have.Add(rank(id))
			oracle = oracle.insert(id)
		case 2:
			id := nextID()
			_, held := ref.set[id]
			if m := b.Get(id); (m != nil) != held || m != nil && m.ID != id {
				t.Fatalf("step %d: Get(%v) = %v, held %v", step, id, m, held)
			}
		case 3:
			sv := have.Summary()
			snaps = append(snaps, snapshot{sv, slices.Clone(sv.words)})
			peer := make(map[MessageID]struct{})
			var peerSet RankSet
			for k := next() % 6; k > 0; k-- {
				id := nextID()
				peer[id] = struct{}{}
				peerSet.Add(rank(id))
			}
			peerSV := peerSet.Summary()
			got := lacks(summaryRanks, &have, peerSV)
			merged := slices.Collect(oracle.lacks(slices.SortedFunc(maps.Keys(peer), MessageID.Compare)))
			if !slices.Equal(got, merged) {
				t.Fatalf("step %d: Lacks(%v) = %v, merge walk %v", step, members(summaryRanks, peerSV), got, merged)
			}
			if want := ref.missing(peer); !slices.Equal(got, want) {
				t.Fatalf("step %d: Lacks(%v) = %v, want %v", step, members(summaryRanks, peerSV), got, want)
			}
		case 4:
			var drained []MessageID
			for _, m := range b.order {
				drained = append(drained, m.ID)
			}
			b.Drain()
			if !slices.Equal(drained, ref.order) {
				t.Fatalf("step %d: Drain = %v, want oldest-first %v", step, drained, ref.order)
			}
			have.Clear()
			oracle = nil
			ref = &refSummarySet{capacity: capacity, set: make(map[MessageID]struct{})}
		}
		sv := have.Summary()
		got := members(summaryRanks, sv)
		if !slices.Equal(got, []MessageID(oracle)) {
			t.Fatalf("step %d: Summary = %v, sorted oracle %v", step, got, oracle)
		}
		if want := ref.sorted(); !slices.Equal(got, want) {
			t.Fatalf("step %d: Summary = %v, want %v", step, got, want)
		}
		pop := 0
		for _, w := range sv.words {
			pop += bits.OnesCount64(w)
		}
		if pop != sv.Len() || pop != have.count || pop != b.Len() {
			t.Fatalf("step %d: summary popcount %d, Len %d, set Len %d, buffer Len %d",
				step, pop, sv.Len(), have.count, b.Len())
		}
		for v := range 3 * 8 {
			id := MessageID{Src: v % 3, Seq: v / 3}
			if have.Has(rank(id)) != b.Has(id) {
				t.Fatalf("step %d: set Has(%v) = %v, buffer Has %v", step, id, have.Has(rank(id)), b.Has(id))
			}
		}
		for i, s := range snaps {
			if !slices.Equal(s.sv.words, s.want) {
				t.Fatalf("step %d: snapshot %d changed to %x, taken as %x", step, i, s.sv.words, s.want)
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
	f.Add([]byte{0, 0, 2, 1, 5, 3, 4, 2, 5, 4, 0, 8, 3, 3, 2, 5, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		checkBufferSummary(t, int(data[0]%4), data[1:])
	})
}
