package dtn

// CustodyStore implements the two-area storage of §2.3.2: "The Store is
// the place where messages are waiting to be sent whereas messages that
// are just sent are saved in the Cache." A message moves Store→Cache when
// transmitted, Cache→gone when the next hop acknowledges custody, and
// Cache→Store when the acknowledgment times out ("after staying in the
// Cache for specified time, the message is moved from Cache to Store for
// another round of transfer rescheduling").
//
// The capacity bounds Store+Cache together — the paper's per-node storage
// limit counts messages held. Under pressure, "message in the Cache is
// dropped first".
type CustodyStore struct {
	capacity int // total Store+Cache bound; 0 = unlimited
	store    Buffer
	cache    Buffer
	sentAt   map[MessageID]float64 // when each cached message was sent
}

// NewCustodyStore returns an empty custody store. capacity ≤ 0 means
// unlimited. Its maps are made on first write, so a node that never
// holds a message costs one small struct.
func NewCustodyStore(capacity int) *CustodyStore {
	if capacity < 0 {
		capacity = 0
	}
	return &CustodyStore{capacity: capacity}
}

// Total returns the number of messages held across Store and Cache — the
// paper's "storage (number of messages)" metric.
func (c *CustodyStore) Total() int { return c.store.Len() + c.cache.Len() }

// StoreLen returns the number of messages waiting to be sent.
func (c *CustodyStore) StoreLen() int { return c.store.Len() }

// Get returns the held message from either area, or nil.
func (c *CustodyStore) Get(id MessageID) *Message {
	if m := c.store.Get(id); m != nil {
		return m
	}
	return c.cache.Get(id)
}

// Add places m into the Store. When the total capacity is exceeded, the
// oldest Cache entry is dropped first; if the Cache is empty, the oldest
// Store entry is dropped. It returns any dropped message and reports
// whether m was merged into a copy of the same message already held (its
// flags and a fresher destination estimate are folded in): the store
// then keeps no reference to m, and the caller still owns it.
func (c *CustodyStore) Add(m *Message) (dropped *Message, merged bool) {
	if existing := c.Get(m.ID); existing != nil {
		existing.Flags |= m.Flags
		existing.UpdateDstLoc(m.DstLoc, m.DstLocTime, m.DstLocKnown)
		return nil, true
	}
	if c.capacity > 0 && c.Total() >= c.capacity {
		if c.cache.Len() > 0 {
			dropped = c.cache.popOldest()
			delete(c.sentAt, dropped.ID)
		} else {
			dropped = c.store.popOldest()
		}
	}
	c.store.Add(m)
	return dropped, false
}

// AppendStored appends the Store contents oldest-first into buf (pass
// buf[:0] to reuse a scratch slice on hot paths).
func (c *CustodyStore) AppendStored(buf []*Message) []*Message { return c.store.AppendMessages(buf) }

// MarkSent moves a message from Store to Cache, recording the send time
// for ack-timeout sweeps. It reports whether the message was in the Store.
func (c *CustodyStore) MarkSent(id MessageID, now float64) bool {
	m := c.store.Remove(id)
	if m == nil {
		return false
	}
	c.cache.Add(m)
	if c.sentAt == nil {
		c.sentAt = make(map[MessageID]float64)
	}
	c.sentAt[id] = now
	return true
}

// Ack removes an acknowledged message from the Cache, completing custody
// transfer. It returns the released message, or nil if it was not cached.
func (c *CustodyStore) Ack(id MessageID) *Message {
	m := c.cache.Remove(id)
	if m != nil {
		delete(c.sentAt, id)
	}
	return m
}

// ReturnToStore immediately moves a cached message back to the Store
// (used when the sender learns the transfer failed before the cache
// timeout). It returns the moved message, or nil if it was not cached.
func (c *CustodyStore) ReturnToStore(id MessageID) *Message {
	m := c.cache.Remove(id)
	if m == nil {
		return nil
	}
	delete(c.sentAt, id)
	c.store.Add(m)
	return m
}

// ExpireCache moves every cache entry sent at or before deadline back to
// the Store for rescheduling, oldest-first, and appends the moved
// messages to buf (pass buf[:0] to reuse a scratch slice on hot paths).
func (c *CustodyStore) ExpireCache(deadline float64, buf []*Message) []*Message {
	start := len(buf)
	buf = c.cache.AppendMessages(buf)
	moved := buf[:start] // filters the cache snapshot in place
	for _, m := range buf[start:] {
		if c.sentAt[m.ID] <= deadline {
			c.cache.Remove(m.ID)
			delete(c.sentAt, m.ID)
			c.store.Add(m)
			moved = append(moved, m)
		}
	}
	return moved
}

// Drain empties Store and Cache, appending every message they held to buf
// (Store then Cache, each oldest-first) so the caller can reuse them.
func (c *CustodyStore) Drain(buf []*Message) []*Message {
	buf = c.store.appendDrain(buf)
	buf = c.cache.appendDrain(buf)
	clear(c.sentAt)
	return buf
}
