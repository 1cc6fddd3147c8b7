package dtn

import (
	"iter"
	"math/bits"
	"slices"
)

// MessageRanks numbers every message of one world densely in the
// canonical (Src, Seq) order: the message (src, seq) has rank
// base[src] + seq. It rests on sources numbering their messages 0, 1,
// 2, … (as sim.World does), so a world that plans count[src] messages
// per source ranks them all in 0 … total-1 with no gaps. The table is
// read-only once built and may be shared by every node of the world.
type MessageRanks struct {
	base []int       // base[src]: the rank of (src, 0); len = sources+1
	ids  []MessageID // ids[rank]: the inverse map
}

// NewMessageRanks ranks the messages of a world in which source src
// generates count[src] messages.
func NewMessageRanks(count []int) *MessageRanks {
	r := &MessageRanks{base: make([]int, len(count)+1)}
	for src, c := range count {
		r.base[src+1] = r.base[src] + c
	}
	r.ids = make([]MessageID, 0, r.base[len(count)])
	for src, c := range count {
		for seq := range c {
			r.ids = append(r.ids, MessageID{Src: src, Seq: seq})
		}
	}
	return r
}

// Rank returns id's rank. It panics when the world never plans id: a
// message nobody generated is a bug of the caller.
func (r *MessageRanks) Rank(id MessageID) int {
	if id.Seq < 0 || id.Seq >= r.base[id.Src+1]-r.base[id.Src] {
		panic("dtn: message " + id.String() + " has no rank")
	}
	return r.base[id.Src] + id.Seq
}

// Len returns the number of ranked messages.
func (r *MessageRanks) Len() int { return len(r.ids) }

// ID returns the message of the given rank.
func (r *MessageRanks) ID(rank int) MessageID { return r.ids[rank] }

// SummaryVector is the set of messages a node advertises during
// epidemic anti-entropy exchange: a bitmap over the world's message
// ranks (MessageRanks), bit r of word r/64 set when the message of rank
// r is held, plus the count of set bits. A vector may be shared by
// frames still queued in the MAC, so it is never modified once built.
type SummaryVector struct {
	words []uint64
	count int
}

// Len returns the number of messages in the vector.
func (sv SummaryVector) Len() int { return sv.count }

// RankSet is a mutable set of message ranks, a bitmap that grows to the
// highest rank added. It hands out immutable SummaryVector snapshots and
// diffs a peer's vector against itself word by word.
type RankSet struct {
	words   []uint64
	count   int
	summary []uint64 // snapshot of words; nil when stale
}

// Add inserts rank. Adding a held rank changes nothing, so the current
// snapshot stays valid.
func (s *RankSet) Add(rank int) {
	w, bit := rank/64, uint64(1)<<(rank%64)
	if w >= len(s.words) {
		s.words = append(s.words, make([]uint64, w+1-len(s.words))...)
	}
	if s.words[w]&bit != 0 {
		return
	}
	s.words[w] |= bit
	s.count++
	s.summary = nil
}

// Has reports whether rank is in the set.
func (s *RankSet) Has(rank int) bool {
	w := rank / 64
	return w < len(s.words) && s.words[w]&(uint64(1)<<(rank%64)) != 0
}

// Remove deletes rank if held.
func (s *RankSet) Remove(rank int) {
	w, bit := rank/64, uint64(1)<<(rank%64)
	if w >= len(s.words) || s.words[w]&bit == 0 {
		return
	}
	s.words[w] &^= bit
	s.count--
	s.summary = nil
}

// Clear empties the set. Snapshots taken earlier keep their contents.
func (s *RankSet) Clear() {
	clear(s.words)
	s.count = 0
	s.summary = nil
}

// Summary returns the set as a summary vector. The vector is a snapshot
// shared by every call until the set next changes; it is built at most
// once per change.
func (s *RankSet) Summary() SummaryVector {
	if s.count == 0 {
		return SummaryVector{}
	}
	if s.summary == nil {
		s.summary = slices.Clone(s.words)
	}
	return SummaryVector{words: s.summary, count: s.count}
}

// Lacks yields, in ascending order, the ranks of sv the set does not
// hold — the messages to request from the peer that advertised sv. Rank
// order is the canonical (Src, Seq) order. Each word of sv is diffed
// against the set's word as the walk reaches it.
func (s *RankSet) Lacks(sv SummaryVector) iter.Seq[int] {
	return func(yield func(int) bool) {
		for w, theirs := range sv.words {
			if w < len(s.words) {
				theirs &^= s.words[w]
			}
			for theirs != 0 {
				if !yield(w*64 + bits.TrailingZeros64(theirs)) {
					return
				}
				theirs &= theirs - 1
			}
		}
	}
}
