package dtn

import (
	"iter"
	"slices"
)

// Buffer is a bounded FIFO message store keyed by MessageID. It models the
// paper's node storage: "When storage is limited and the storage space is
// fully occupied, old messages are dropped when new messages come in."
// A capacity of 0 means unlimited.
type Buffer struct {
	capacity int
	order    []MessageID // insertion order (oldest first)
	byID     map[MessageID]*Message
	sorted   []MessageID   // held ids in canonical (Src, Seq) order
	summary  SummaryVector // immutable snapshot of sorted; nil when stale
}

// NewBuffer returns an empty buffer. capacity ≤ 0 means unlimited.
func NewBuffer(capacity int) *Buffer {
	if capacity < 0 {
		capacity = 0
	}
	return &Buffer{capacity: capacity, byID: make(map[MessageID]*Message)}
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
// evicted message (nil if none) and reports whether m's content is now
// stored (true also for merges).
func (b *Buffer) Add(m *Message) (evicted *Message, stored bool) {
	if existing, ok := b.byID[m.ID]; ok {
		existing.Flags |= m.Flags
		existing.UpdateDstLoc(m.DstLoc, m.DstLocTime, m.DstLocKnown)
		return nil, true
	}
	if b.capacity > 0 && len(b.byID) >= b.capacity {
		evicted = b.popOldest()
	}
	b.order = append(b.order, m.ID)
	b.byID[m.ID] = m
	i, _ := slices.BinarySearchFunc(b.sorted, m.ID, MessageID.Compare)
	b.sorted = slices.Insert(b.sorted, i, m.ID)
	b.summary = nil
	return evicted, true
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
	b.unindex(id)
	return m
}

// popOldest removes and returns the oldest message.
func (b *Buffer) popOldest() *Message {
	if len(b.order) == 0 {
		return nil
	}
	id := b.order[0]
	b.order = b.order[1:]
	m := b.byID[id]
	delete(b.byID, id)
	b.unindex(id)
	return m
}

// unindex deletes a removed id from the sorted index.
func (b *Buffer) unindex(id MessageID) {
	i, _ := slices.BinarySearchFunc(b.sorted, id, MessageID.Compare)
	b.sorted = slices.Delete(b.sorted, i, i+1)
	b.summary = nil
}

// Messages returns the stored messages oldest-first. The slice is freshly
// allocated; the *Message values are the live stored messages.
func (b *Buffer) Messages() []*Message {
	return b.AppendMessages(make([]*Message, 0, len(b.order)))
}

// AppendMessages appends the stored messages oldest-first (pass buf[:0]
// to reuse a scratch slice on hot paths).
func (b *Buffer) AppendMessages(buf []*Message) []*Message {
	for _, id := range b.order {
		buf = append(buf, b.byID[id])
	}
	return buf
}

// SummaryVector is the set of message ids a node advertises during
// epidemic anti-entropy exchange, sorted in the canonical (Src, Seq) order
// without duplicates. A vector may be shared by frames still queued in
// the MAC, so it is never modified once built.
type SummaryVector []MessageID

// Summary returns the buffer's current summary vector. The vector is a
// snapshot shared by every call until the buffer next changes; it is
// built at most once per change.
func (b *Buffer) Summary() SummaryVector {
	if b.summary == nil {
		b.summary = slices.Clone(b.sorted)
	}
	return b.summary
}

// Lacks yields, in canonical order, the ids of sv the buffer does not
// hold — the messages to request from the peer that advertised sv. It is
// one merge walk over sv and the buffer's sorted index; the buffer must
// not change while the walk runs.
func (b *Buffer) Lacks(sv SummaryVector) iter.Seq[MessageID] {
	return func(yield func(MessageID) bool) {
		own := b.sorted
		j := 0
		for _, id := range sv {
			for j < len(own) && own[j].Less(id) {
				j++
			}
			if j < len(own) && own[j] == id {
				j++ // sv holds id once
				continue
			}
			if !yield(id) {
				return
			}
		}
	}
}
