package freelist

import "testing"

type box struct {
	a, b int
}

// TestTakeReusesLastPut checks LIFO reuse: Take hands back the boxes
// Put returned, most recent first, before it carves a fresh one, and a
// reused box keeps what its last user left in it.
func TestTakeReusesLastPut(t *testing.T) {
	var l List[box]
	x, y, z := l.Take(), l.Take(), l.Take()
	if x == y || y == z || x == z {
		t.Fatal("Take handed out one box twice")
	}
	x.a, y.a = 1, 2
	l.Put(x)
	l.Put(y)
	if got := l.Take(); got != y || got.a != 2 {
		t.Fatalf("first Take after Put(x), Put(y) = %p (a=%d), want y %p (a=2)", got, got.a, y)
	}
	if got := l.Take(); got != x || got.a != 1 {
		t.Fatalf("second Take = %p, want x %p", got, x)
	}
	if got := l.Take(); got == x || got == y || got == z || *got != (box{}) {
		t.Fatalf("Take from an empty list returned %p = %+v, want a fresh zero box", got, *got)
	}
}

// TestChunksDoubleToCap checks that fresh boxes come from arrays of 4,
// 8, 16, … boxes, never more than maxChunk, and that every box of an
// array is handed out before the next array is carved.
func TestChunksDoubleToCap(t *testing.T) {
	var l List[box]
	var chunks []int
	for range 2000 {
		carves := len(l.chunk) == 0
		l.Take()
		if carves {
			chunks = append(chunks, l.carved)
		}
	}
	want := minChunk
	total := 0
	for i, n := range chunks {
		total += n
		if n != want {
			t.Fatalf("chunk %d holds %d boxes, want %d (chunks %v)", i, n, want, chunks)
		}
		want = min(2*want, maxChunk)
	}
	if total-len(l.chunk) != 2000 {
		t.Fatalf("chunks %v with %d boxes left hand out %d boxes, want 2000", chunks, len(l.chunk), total-len(l.chunk))
	}
	if chunks[len(chunks)-1] != maxChunk {
		t.Fatalf("chunks %v never reached the cap %d", chunks, maxChunk)
	}
}

// TestPoisonedBoxesNeverReused checks that a list with a Poison hook
// hands each released box to the hook and never out again.
func TestPoisonedBoxesNeverReused(t *testing.T) {
	var l List[box]
	poisoned := map[*box]bool{}
	l.Poison = func(x *box) {
		x.a, x.b = -1, -1
		poisoned[x] = true
	}
	for range 500 {
		x := l.Take()
		if poisoned[x] {
			t.Fatalf("Take handed out poisoned box %p", x)
		}
		if *x != (box{}) {
			t.Fatalf("Take handed out a used box %+v", *x)
		}
		x.a = 7
		l.Put(x)
	}
	if len(poisoned) != 500 {
		t.Fatalf("the hook saw %d boxes, want 500", len(poisoned))
	}
}

// TestWarmTakePutAllocatesNothing checks that once a list holds enough
// released boxes, taking and putting them back costs no allocation.
func TestWarmTakePutAllocatesNothing(t *testing.T) {
	var l List[box]
	var held [64]*box
	cycle := func() {
		for i := range held {
			held[i] = l.Take()
		}
		for _, x := range held {
			l.Put(x)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("a warm Take/Put cycle allocates %v times, want 0", allocs)
	}
}
