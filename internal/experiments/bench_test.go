package experiments

import (
	"context"
	"testing"

	"glr/internal/matrix"
)

// BenchmarkExperiments regenerates each paper artifact end to end,
// uncached, at a reduced scale (one replication, 5% of the paper's
// message load), so a default -bench pass self-limits to about one
// iteration per artifact; `glrexp -scale paper` runs the full-fidelity
// versions.
func BenchmarkExperiments(b *testing.B) {
	o := Options{Runs: 1, MsgScale: 0.05, BaseSeed: 1}
	for _, e := range All() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := Run(context.Background(), &matrix.Driver{}, o, e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
