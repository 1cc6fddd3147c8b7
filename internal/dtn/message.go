// Package dtn provides the store-carry-forward substrate shared by the GLR
// protocol and the epidemic baseline: bundle messages and their world
// ranks, the bounded FIFO buffer epidemic stores copies in, summary
// vectors (epidemic routing's anti-entropy state), timestamped location
// tables (§2.3.1 location diffusion), and beacon-fed neighbor tables (the
// IMEP link/connection status substitute). GLR's custody Store/Cache
// pair of §2.3.2 is its own (internal/core).
package dtn

import (
	"cmp"
	"fmt"

	"glr/internal/geom"
)

// MessageID identifies a logical message: the i-th message generated by a
// source node. All copies of a message share its MessageID.
type MessageID struct {
	Src int
	Seq int
}

// String implements fmt.Stringer.
func (id MessageID) String() string { return fmt.Sprintf("m%d.%d", id.Src, id.Seq) }

// Compare returns -1, 0 or +1 as id orders before, equal to or after
// other in the canonical (Src, Seq) order — the deterministic iteration
// order every sweep over a map of message ids must sort into before
// acting (raw map order would leak runtime randomization into frame
// sequences), and the order of message ranks (MessageRanks).
func (id MessageID) Compare(other MessageID) int {
	if c := cmp.Compare(id.Src, other.Src); c != 0 {
		return c
	}
	return cmp.Compare(id.Seq, other.Seq)
}

// TreeFlags mark which source-to-destination tree(s) a message copy
// follows (§2.3): relays forward a copy along every tree whose flag is
// set. A copy whose Max and Min neighbors coincide carries both flags in
// one transmission.
type TreeFlags uint8

// Tree flag bits. FlagMid2 and FlagMid3 support the paper's "if more than
// three identical message copies are needed ... multiple MidDSTD trees are
// extracted".
const (
	FlagMax TreeFlags = 1 << iota
	FlagMin
	FlagMid
	FlagMid2
	FlagMid3
)

// Has reports whether all bits in q are set.
func (f TreeFlags) Has(q TreeFlags) bool { return f&q == q }

// String implements fmt.Stringer.
func (f TreeFlags) String() string {
	if f == 0 {
		return "none"
	}
	s := ""
	add := func(bit TreeFlags, name string) {
		if f&bit != 0 {
			if s != "" {
				s += "|"
			}
			s += name
		}
	}
	add(FlagMax, "max")
	add(FlagMin, "min")
	add(FlagMid, "mid")
	add(FlagMid2, "mid2")
	add(FlagMid3, "mid3")
	return s
}

// AllTreeFlags returns the first n tree flags in the canonical order
// Max, Min, Mid, Mid2, Mid3 (n clamped to [1,5]). This is the flag set a
// source uses when its intelligence decision asks for n copies.
func AllTreeFlags(n int) []TreeFlags {
	all := []TreeFlags{FlagMax, FlagMin, FlagMid, FlagMid2, FlagMid3}
	if n < 1 {
		n = 1
	}
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}

// Message is a DTN bundle. Messages are carried by value through frames
// and copied explicitly: a store copies a message in when it takes it
// (Buffer.Add, GLR's custody table), so a *Message handed to a store,
// or to a protocol by sim's OnMessageGenerated, stays its owner's. A
// store recycles the box of a copy that leaves it (evicted, drained,
// acknowledged, sent without custody) for the next copy it takes, so no
// one may keep a *Message a store handed out past the store's next
// change.
type Message struct {
	ID          MessageID
	Dst         int
	Created     float64 // generation time, seconds
	PayloadBits int

	Hops  int       // transmissions this copy has experienced
	Flags TreeFlags // tree membership of this copy (GLR only)

	// Destination location estimate carried in the header (§2.3.1).
	// DstLocTime is the estimate's origin timestamp; DstLocKnown is false
	// when the field holds a random placeholder (the paper's "no nodes
	// know" regime assigns a random location at the beginning).
	DstLoc      geom.Point
	DstLocTime  float64
	DstLocKnown bool
}

// UpdateDstLoc adopts a fresher destination-location estimate. It reports
// whether the message was updated: a known estimate always beats an
// unknown one; among known estimates the newer timestamp wins.
func (m *Message) UpdateDstLoc(p geom.Point, t float64, known bool) bool {
	if !known {
		return false
	}
	if m.DstLocKnown && t <= m.DstLocTime {
		return false
	}
	m.DstLoc = p
	m.DstLocTime = t
	m.DstLocKnown = true
	return true
}
