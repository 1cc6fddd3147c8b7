package mac

import (
	"math"

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
