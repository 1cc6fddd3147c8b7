package epidemic_test

import (
	"testing"

	"glr"
)

// pinnedScenarios are short seeded 50-node epidemic worlds covering each
// anti-entropy path: full summaries with maxBatch backlogs, FIFO
// eviction and churn restarts.
var pinnedScenarios = []struct {
	name string
	opts []glr.Option
}{
	{"default", nil},
	{"storage100", []glr.Option{glr.WithStorageLimit(100)}},
	{"churn", []glr.Option{glr.WithFaults(glr.Fault{Kind: glr.FaultChurn, Rate: 0.005, Duration: 20})}},
}

// pinnedResults are the exact results of pinnedScenarios. Unlike the
// repeat-determinism tests, which compare runs within one build, these
// literals fail on any change to the order or content of request,
// summary or data frames.
var pinnedResults = map[string]glr.Result{
	"default":    {Generated: 200, Delivered: 197, DeliveryRatio: 0.985, AvgLatency: 34.858321873429674, AvgHops: 3.3654822335025356, MaxPeakStorage: 200, AvgPeakStorage: 198.52, Duplicates: 0, ControlFrames: 21076, DataFrames: 9739, Acks: 0},
	"storage100": {Generated: 200, Delivered: 169, DeliveryRatio: 0.845, AvgLatency: 29.966818991636803, AvgHops: 3.2721893491124256, MaxPeakStorage: 100, AvgPeakStorage: 100, Duplicates: 0, ControlFrames: 27593, DataFrames: 23688, Acks: 0},
	"churn":      {Generated: 200, Delivered: 192, DeliveryRatio: 0.96, AvgLatency: 34.222469178785396, AvgHops: 3.234375, MaxPeakStorage: 195, AvgPeakStorage: 191.72, Duplicates: 68, ControlFrames: 20274, DataFrames: 15226, Acks: 0},
}

func runPinned(t *testing.T, opts []glr.Option) glr.Result {
	t.Helper()
	sc, err := glr.NewScenario(append([]glr.Option{
		glr.WithProtocol(glr.Epidemic),
		glr.WithNodes(50), glr.WithRange(100),
		glr.WithWorkload(glr.PaperWorkload{Messages: 200}),
		glr.WithSimTime(300), glr.WithSeed(3),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEpidemicPinnedResults checks pinnedScenarios against their pinned
// results. A mismatch prints the fresh result as a Go literal.
func TestEpidemicPinnedResults(t *testing.T) {
	for _, ps := range pinnedScenarios {
		got := runPinned(t, ps.opts)
		if want, ok := pinnedResults[ps.name]; !ok || got != want {
			t.Errorf("%s:\n got  %#v\n want %#v", ps.name, got, want)
		}
	}
}
