package mac

import (
	"fmt"
	"math"
	"slices"

	"glr/internal/des"
	"glr/internal/geom"
)

// newNaiveMedium returns the all-pairs reference medium the grid-indexed
// medium is checked against: its radio and transmission indexes answer
// every query with every indexed id, unfiltered, so reception, carrier
// sensing and interference gathering rest on the exact predicates alone.
func newNaiveMedium(sched *des.Scheduler, cfg Config, seed int64, pos func(int) geom.Point) (*Medium, error) {
	m, err := NewMedium(sched, cfg, seed, pos)
	if err != nil {
		return nil, err
	}
	m.radioIdx, m.txIdx = &allPairs{}, &allPairs{}
	return m, nil
}

// allPairs is an index whose queries return every indexed id in
// ascending order, whatever the disk.
type allPairs struct {
	in []bool // in[id]: id is indexed
}

func (a *allPairs) Insert(id int, _ geom.Point) error {
	if id < len(a.in) && a.in[id] {
		return fmt.Errorf("id %d already indexed", id)
	}
	a.Update(id, geom.Point{})
	return nil
}

func (a *allPairs) Update(id int, _ geom.Point) {
	for id >= len(a.in) {
		a.in = append(a.in, false)
	}
	a.in[id] = true
}

func (a *allPairs) Remove(id int) bool {
	had := id < len(a.in) && a.in[id]
	if had {
		a.in[id] = false
	}
	return had
}

func (a *allPairs) NearIDs(_ geom.Point, _ float64, buf []int) []int {
	for id, ok := range a.in {
		if ok {
			buf = append(buf, id)
		}
	}
	return buf
}

// newUnprunedMedium returns the reference medium the retention rule is
// checked against: a production medium that never prunes its FIFO or a
// radio's half-duplex history (retain = +Inf), so every overlap check
// sees every airing ever started.
func newUnprunedMedium(sched *des.Scheduler, cfg Config, seed int64, pos func(int) geom.Point) (*Medium, error) {
	m, err := NewMedium(sched, cfg, seed, pos)
	if err != nil {
		return nil, err
	}
	m.retain = math.Inf(1)
	return m, nil
}

// retained returns the number of airings the FIFO holds.
func (m *Medium) retained() int { return len(m.active) - m.head }

// checkEndIndex checks the end-tick index against a rescan of the
// retained FIFO: the index must hold exactly the airings that have not
// ended, {u ∈ active[head:] : u.end > now}, each under its own end tick
// and in FIFO (start) order within a tick. Call it between events, at a
// time no airing ends at.
func (m *Medium) checkEndIndex() error {
	now := m.sched.Now()
	want := make(map[des.Time][]*transmission)
	var ticks []des.Time // end ticks in first-seen FIFO order, for messages
	for _, u := range m.active[m.head:] {
		if u.end > now {
			if _, ok := want[u.end]; !ok {
				ticks = append(ticks, u.end)
			}
			want[u.end] = append(want[u.end], u)
		}
	}
	for end := range m.ending {
		if _, ok := want[end]; !ok {
			return fmt.Errorf("t=%v: index holds end tick %v, which no unended airing has", now, end)
		}
	}
	for _, end := range ticks {
		got, ok := m.ending[end]
		if !ok {
			return fmt.Errorf("t=%v: end tick %v of %d airings is not indexed", now, end, len(want[end]))
		}
		if !slices.Equal(got, want[end]) {
			return fmt.Errorf("t=%v: end tick %v indexes %d airings, the scan finds %d (or their order differs)",
				now, end, len(got), len(want[end]))
		}
	}
	return nil
}
