package dtn

// Buffer is a bounded FIFO message store keyed by MessageID. It models the
// paper's node storage: "When storage is limited and the storage space is
// fully occupied, old messages are dropped when new messages come in."
// A capacity of 0 means unlimited.
type Buffer struct {
	capacity int
	order    []MessageID // insertion order (oldest first)
	byID     map[MessageID]*Message
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

// Get returns the stored message with the given id, or nil.
func (b *Buffer) Get(id MessageID) *Message { return b.byID[id] }

// Add inserts m. If a message with the same ID is already present, the
// tree flags are merged into the existing copy (two copies of one message
// meeting at a node coalesce) and no eviction happens. Otherwise, when the
// buffer is full, the oldest message is evicted FIFO. It returns the
// evicted message (nil if none).
func (b *Buffer) Add(m *Message) (evicted *Message) {
	if existing, ok := b.byID[m.ID]; ok {
		existing.Flags |= m.Flags
		existing.UpdateDstLoc(m.DstLoc, m.DstLocTime, m.DstLocKnown)
		return nil
	}
	if b.capacity > 0 && len(b.byID) >= b.capacity {
		evicted = b.popOldest()
	}
	if b.byID == nil {
		b.byID = make(map[MessageID]*Message)
	}
	b.order = append(b.order, m.ID)
	b.byID[m.ID] = m
	return evicted
}

// Remove deletes and returns the message with the given id, or nil. The
// deletion is O(n) in the buffer size, which is bounded by the paper's
// storage limits (≤ a few hundred messages).
func (b *Buffer) Remove(id MessageID) *Message {
	m, ok := b.byID[id]
	if !ok {
		return nil
	}
	delete(b.byID, id)
	for i, o := range b.order {
		if o == id {
			b.order = append(b.order[:i], b.order[i+1:]...)
			break
		}
	}
	return m
}

// Drain appends the stored messages oldest-first to buf and empties the
// buffer, keeping its map and order storage for reuse. The caller owns
// the drained messages.
func (b *Buffer) Drain(buf []*Message) []*Message {
	buf = b.AppendMessages(buf)
	b.order = b.order[:0]
	clear(b.byID)
	return buf
}

// popOldest removes and returns the oldest message.
func (b *Buffer) popOldest() *Message {
	if len(b.order) == 0 {
		return nil
	}
	id := b.order[0]
	// Shift rather than reslice: the order array keeps its capacity, so
	// a full buffer's evict-and-add cycle allocates nothing (order[1:]
	// would strand a slot per eviction and regrow the array).
	b.order = b.order[:copy(b.order, b.order[1:])]
	m := b.byID[id]
	delete(b.byID, id)
	return m
}

// AppendMessages appends the stored messages oldest-first (pass buf[:0]
// to reuse a scratch slice on hot paths).
func (b *Buffer) AppendMessages(buf []*Message) []*Message {
	for _, id := range b.order {
		buf = append(buf, b.byID[id])
	}
	return buf
}
