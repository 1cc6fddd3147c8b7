package mac

import (
	"fmt"
	"math"
	"slices"

	"glr/internal/des"
	"glr/internal/spatial"
)

// newNaiveMedium returns the all-pairs reference medium the grid-indexed
// medium is checked against. Its radio and transmission grids use cells
// of the largest finite size, so the nonnegative quadrant is one cell
// and every index query returns every radio and airing in it; a point
// across an axis from a query's whole disk is the only entry skipped.
func newNaiveMedium(sched *des.Scheduler, cfg Config, seed int64) (*Medium, error) {
	m, err := NewMedium(sched, cfg, seed)
	if err != nil {
		return nil, err
	}
	if m.radioIdx, err = spatial.NewGrid(math.MaxFloat64); err != nil {
		return nil, err
	}
	if m.txIdx, err = spatial.NewGrid(math.MaxFloat64); err != nil {
		return nil, err
	}
	return m, nil
}

// newUnprunedMedium returns the reference medium the retention rule is
// checked against: a production medium that never prunes its FIFO or a
// radio's half-duplex history (retain = +Inf), so every overlap check
// sees every airing ever started.
func newUnprunedMedium(sched *des.Scheduler, cfg Config, seed int64) (*Medium, error) {
	m, err := NewMedium(sched, cfg, seed)
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
