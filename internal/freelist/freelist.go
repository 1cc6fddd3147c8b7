// Package freelist recycles the simulator's per-send and per-event
// boxes: scheduler events, MAC airings, hello and protocol frames,
// held message copies. A List is single-threaded, like the scheduler
// whose events release its boxes, and a released box keeps whatever
// its last user left in it: each caller resets what it reads.
package freelist

// Bounds of the arrays a List carves fresh boxes from: the first holds
// minChunk boxes and each next one twice the last, up to maxChunk, so a
// list that hands out a few boxes pays for a few and a busy one pays
// one allocation per maxChunk boxes.
const (
	minChunk = 4
	maxChunk = 128
)

// List is a LIFO free list of *T boxes. The zero value is an empty list.
type List[T any] struct {
	free   []*T
	chunk  []T // fresh boxes not yet handed out
	carved int // length of the last carved array
	// Poison, when set, takes every box Put hands back instead of the
	// list, which then never hands that box out again. Only tests set
	// it, to show that nothing reads a box after its release.
	Poison func(*T)
}

// Take returns the box Put last, or a fresh zero box when none is free.
func (l *List[T]) Take() *T {
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free = l.free[:n-1]
		return x
	}
	if len(l.chunk) == 0 {
		l.carved = min(max(2*l.carved, minChunk), maxChunk)
		l.chunk = make([]T, l.carved)
	}
	x := &l.chunk[0]
	l.chunk = l.chunk[1:]
	return x
}

// Put hands x back for reuse; nothing may read x afterwards.
func (l *List[T]) Put(x *T) {
	if l.Poison != nil {
		l.Poison(x)
		return
	}
	l.free = append(l.free, x)
}
