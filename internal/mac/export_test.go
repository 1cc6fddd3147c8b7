package mac

import "glr/internal/des"

// newNaiveMedium returns a medium without spatial indexes: reception,
// carrier sensing, and interference scan every radio and every retained
// airing. It is the reference the grid-indexed medium is checked and
// benchmarked against.
func newNaiveMedium(sched *des.Scheduler, cfg Config, seed int64) (*Medium, error) {
	m, err := NewMedium(sched, cfg, seed)
	if err != nil {
		return nil, err
	}
	m.radioIdx, m.txIdx = nil, nil
	return m, nil
}
