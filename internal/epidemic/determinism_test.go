package epidemic_test

import (
	"testing"

	"glr"
)

// TestEpidemicRepeatDeterminism: identical seeded epidemic runs must be
// byte-identical within one process. Regression test for the retry
// sweep iterating its wants/backlog maps in map order, which let batch
// selection and frame order drift between runs — the scenario below is
// dense enough to exercise maxBatch-bounded retries, where the drift
// showed up as a few frames' difference.
func TestEpidemicRepeatDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run 50-node sweep; skipped in -short")
	}
	run := func(seed int64) glr.Result {
		sc, err := glr.NewScenario(
			glr.WithProtocol(glr.Epidemic),
			glr.WithNodes(50), glr.WithRange(100),
			glr.WithWorkload(glr.PaperWorkload{Messages: 150}),
			glr.WithSimTime(750), glr.WithSeed(seed),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, seed := range []int64{1, 2} {
		first := run(seed)
		for i := 1; i < 3; i++ {
			if got := run(seed); got != first {
				t.Fatalf("seed %d repeat %d diverged:\nfirst: %+v\nnow:   %+v", seed, i, first, got)
			}
		}
	}
}
