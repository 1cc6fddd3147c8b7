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
	sorted   []MessageID    // held ids in canonical (Src, Seq) order
	summary  SummaryVector  // immutable snapshot of sorted; nil when stale
	version  uint64         // bumped on every new insertion
	insLog   []insertRecord // insertion history for delta summaries; see compactLog
}

// insertRecord is one insertion-log entry: the buffer version right after
// id was inserted.
type insertRecord struct {
	ver uint64
	id  MessageID
}

// NewBuffer returns an empty buffer. capacity ≤ 0 means unlimited.
func NewBuffer(capacity int) *Buffer {
	if capacity < 0 {
		capacity = 0
	}
	return &Buffer{capacity: capacity, byID: make(map[MessageID]*Message)}
}

// Capacity returns the configured capacity (0 = unlimited).
func (b *Buffer) Capacity() int { return b.capacity }

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
	b.version++
	b.insLog = append(b.insLog, insertRecord{ver: b.version, id: m.ID})
	b.compactLog()
	return evicted, true
}

// compactLog bounds the insertion log, which would otherwise grow with
// every insertion for the lifetime of the buffer. When the log exceeds
// twice the held-message count it is rewritten to the latest record of
// each still-held id, preserving record order.
//
// This keeps InsertedSince exact for every version any delta-summary
// consumer can still request — including ver 0 from a peer never synced
// with: an id appears in InsertedSince(v) iff it is held and its latest
// insertion is newer than v, and records of evicted/removed ids decide
// nothing. The only observable difference is ordering across
// re-insertions (a re-inserted id sorts by its latest insertion instead
// of its first), which consumers cannot see: SummarySince sorts the ids
// into canonical order.
func (b *Buffer) compactLog() {
	if len(b.insLog) <= 64 || len(b.insLog) <= 2*len(b.byID) {
		return
	}
	latest := make(map[MessageID]int, len(b.byID)) // id -> index of latest record
	for i, rec := range b.insLog {
		if b.Has(rec.id) {
			latest[rec.id] = i
		}
	}
	kept := b.insLog[:0]
	for i, rec := range b.insLog {
		if latest[rec.id] == i && b.Has(rec.id) {
			kept = append(kept, rec)
		}
	}
	b.insLog = kept
}

// Version returns a counter that increments on every new insertion.
// Anti-entropy peers use it to skip advertising an unchanged buffer.
func (b *Buffer) Version() uint64 { return b.version }

// InsertedSince returns the ids inserted after version ver that are still
// held — the delta an anti-entropy refresh advertises — ordered by their
// surviving log record (insertion order; an id re-inserted after removal
// may sort by its latest insertion once the log has been compacted).
func (b *Buffer) InsertedSince(ver uint64) []MessageID {
	// Binary search the log for the first record newer than ver.
	lo, hi := 0, len(b.insLog)
	for lo < hi {
		mid := (lo + hi) / 2
		if b.insLog[mid].ver <= ver {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	var out []MessageID
	seen := make(map[MessageID]struct{})
	for _, rec := range b.insLog[lo:] {
		if _, dup := seen[rec.id]; dup {
			continue
		}
		seen[rec.id] = struct{}{}
		if b.Has(rec.id) {
			out = append(out, rec.id)
		}
	}
	return out
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

// IDs returns the stored message ids oldest-first.
func (b *Buffer) IDs() []MessageID {
	msgs := b.Messages()
	out := make([]MessageID, len(msgs))
	for i, m := range msgs {
		out[i] = m.ID
	}
	return out
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

// SummarySince returns the delta summary of the ids InsertedSince(ver)
// lists, in canonical order.
func (b *Buffer) SummarySince(ver uint64) SummaryVector {
	ids := b.InsertedSince(ver)
	slices.SortFunc(ids, MessageID.Compare)
	return ids
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
