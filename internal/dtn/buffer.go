package dtn

import "glr/internal/freelist"

// Buffer is a bounded FIFO message store keyed by MessageID. It models the
// paper's node storage: "When storage is limited and the storage space is
// fully occupied, old messages are dropped when new messages come in."
// A capacity of 0 means unlimited.
//
// Add copies each message into a box of the buffer's own, which goes
// back to the buffer's free list when the buffer evicts or drains the
// copy: a *Message from Get is valid only until the buffer's next Add or
// Drain.
type Buffer struct {
	capacity int
	order    []*Message // held copies, oldest first
	byID     map[MessageID]*Message
	boxes    freelist.List[Message]
}

// NewBuffer returns an empty buffer. capacity ≤ 0 means unlimited. The
// index map is made on the first Add: a nil map reads as empty, so an
// idle node's buffer costs no map.
func NewBuffer(capacity int) *Buffer {
	if capacity < 0 {
		capacity = 0
	}
	return &Buffer{capacity: capacity}
}

// Len returns the number of stored messages.
func (b *Buffer) Len() int { return len(b.byID) }

// Has reports whether a message with the given id is stored.
func (b *Buffer) Has(id MessageID) bool {
	_, ok := b.byID[id]
	return ok
}

// Get returns the stored copy with the given id, or nil.
func (b *Buffer) Get(id MessageID) *Message { return b.byID[id] }

// Add stores a copy of m. If a message with the same ID is already
// present, the tree flags and a fresher destination estimate are merged
// into the held copy (two copies of one message meeting at a node
// coalesce) and no eviction happens. Otherwise, when the buffer is full,
// the oldest message is evicted FIFO; Add returns its id and true.
func (b *Buffer) Add(m *Message) (evicted MessageID, ok bool) {
	if held := b.byID[m.ID]; held != nil {
		held.Flags |= m.Flags
		held.UpdateDstLoc(m.DstLoc, m.DstLocTime, m.DstLocKnown)
		return MessageID{}, false
	}
	if b.capacity > 0 && len(b.byID) >= b.capacity {
		evicted, ok = b.popOldest(), true
	}
	if b.byID == nil {
		b.byID = make(map[MessageID]*Message)
	}
	c := b.boxes.Take()
	*c = *m
	b.order = append(b.order, c)
	b.byID[c.ID] = c
	return evicted, ok
}

// Drain empties the buffer, keeping its map and order storage for reuse
// and every copy's box for the next Add.
func (b *Buffer) Drain() {
	for _, m := range b.order {
		b.boxes.Put(m)
	}
	b.order = b.order[:0]
	clear(b.byID)
}

// popOldest removes the oldest copy, releases its box and returns its id.
func (b *Buffer) popOldest() MessageID {
	m := b.order[0]
	// Shift rather than reslice: the order array keeps its capacity, so
	// a full buffer's evict-and-add cycle allocates nothing (order[1:]
	// would strand a slot per eviction and regrow the array).
	b.order = b.order[:copy(b.order, b.order[1:])]
	id := m.ID
	delete(b.byID, id)
	b.boxes.Put(m)
	return id
}
