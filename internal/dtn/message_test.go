package dtn

import (
	"testing"

	"glr/internal/geom"
)

func TestTreeFlags(t *testing.T) {
	f := FlagMax | FlagMid
	if !f.Has(FlagMax) || !f.Has(FlagMid) || f.Has(FlagMin) {
		t.Error("Has misbehaves")
	}
	if !f.Has(FlagMax | FlagMid) {
		t.Error("Has should accept multi-bit queries")
	}
}

func TestTreeFlagsString(t *testing.T) {
	tests := []struct {
		f    TreeFlags
		want string
	}{
		{0, "none"},
		{FlagMax, "max"},
		{FlagMax | FlagMin | FlagMid, "max|min|mid"},
		{FlagMid2 | FlagMid3, "mid2|mid3"},
	}
	for _, tt := range tests {
		if got := tt.f.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", tt.f, got, tt.want)
		}
	}
}

func TestAllTreeFlags(t *testing.T) {
	tests := []struct {
		n    int
		want int
	}{{0, 1}, {1, 1}, {3, 3}, {5, 5}, {9, 5}}
	for _, tt := range tests {
		got := AllTreeFlags(tt.n)
		if len(got) != tt.want {
			t.Errorf("AllTreeFlags(%d) returned %d flags, want %d", tt.n, len(got), tt.want)
		}
	}
	three := AllTreeFlags(3)
	if three[0] != FlagMax || three[1] != FlagMin || three[2] != FlagMid {
		t.Error("canonical order should be max, min, mid")
	}
}

func TestUpdateDstLoc(t *testing.T) {
	m := &Message{DstLoc: geom.Pt(1, 1), DstLocTime: 10, DstLocKnown: true}
	if m.UpdateDstLoc(geom.Pt(9, 9), 5, true) {
		t.Error("older estimate must not overwrite")
	}
	if m.UpdateDstLoc(geom.Pt(9, 9), 10, true) {
		t.Error("equal-time estimate must not overwrite")
	}
	if !m.UpdateDstLoc(geom.Pt(9, 9), 11, true) {
		t.Error("fresher estimate must overwrite")
	}
	if !m.DstLoc.Eq(geom.Pt(9, 9)) || m.DstLocTime != 11 {
		t.Errorf("estimate not adopted: %v @ %v", m.DstLoc, m.DstLocTime)
	}
	if m.UpdateDstLoc(geom.Pt(0, 0), 99, false) {
		t.Error("unknown estimate must never overwrite")
	}
}

func TestUpdateDstLocFromUnknown(t *testing.T) {
	m := &Message{DstLoc: geom.Pt(5, 5), DstLocTime: 100, DstLocKnown: false}
	// A known estimate beats an unknown placeholder even if its timestamp
	// is older than the placeholder's.
	if !m.UpdateDstLoc(geom.Pt(2, 2), 1, true) {
		t.Error("known estimate should replace unknown placeholder")
	}
	if !m.DstLocKnown {
		t.Error("message should now know its destination location")
	}
}

func TestMessageIDString(t *testing.T) {
	id := MessageID{Src: 4, Seq: 17}
	if got := id.String(); got != "m4.17" {
		t.Errorf("String = %q", got)
	}
}
