package epidemic_test

import (
	"testing"

	"glr"
)

// pinnedScenarios are short seeded 50-node epidemic worlds covering each
// anti-entropy path: full summaries with MaxBatch backlogs, FIFO
// eviction, broadcast deltas, active receipts and churn restarts.
var pinnedScenarios = []struct {
	name string
	opts []glr.Option
}{
	{"default", nil},
	{"storage100", []glr.Option{glr.WithStorageLimit(100)}},
	{"deltas", []glr.Option{glr.WithEpidemic(glr.EpidemicConfig{BroadcastDeltas: true})}},
	{"receipts", []glr.Option{glr.WithEpidemic(glr.EpidemicConfig{ActiveReceipts: true})}},
	{"churn", []glr.Option{glr.WithFaults(glr.Fault{Kind: glr.FaultChurn, Rate: 0.005, Duration: 20})}},
}

// pinnedResults are the exact results of pinnedScenarios. Unlike the
// repeat-determinism tests, which compare runs within one build, these
// literals fail on any change to the order or content of request,
// summary or data frames.
var pinnedResults = map[string]glr.Result{
	"default":    {Generated: 200, Delivered: 199, DeliveryRatio: 0.995, AvgLatency: 38.09455650169862, AvgHops: 3.3517587939698488, MaxPeakStorage: 200, AvgPeakStorage: 199.20000000000002, Duplicates: 0, ControlFrames: 21235, DataFrames: 9776, Acks: 0},
	"storage100": {Generated: 200, Delivered: 176, DeliveryRatio: 0.88, AvgLatency: 40.2925033434921, AvgHops: 3.6306818181818183, MaxPeakStorage: 100, AvgPeakStorage: 100, Duplicates: 0, ControlFrames: 28370, DataFrames: 24367, Acks: 0},
	"deltas":     {Generated: 200, Delivered: 200, DeliveryRatio: 1, AvgLatency: 9.111745972762776, AvgHops: 6.6099999999999985, MaxPeakStorage: 200, AvgPeakStorage: 200, Duplicates: 0, ControlFrames: 27678, DataFrames: 9812, Acks: 0},
	"receipts":   {Generated: 200, Delivered: 199, DeliveryRatio: 0.995, AvgLatency: 37.6278294139468, AvgHops: 3.4974874371859306, MaxPeakStorage: 116, AvgPeakStorage: 71.9, Duplicates: 0, ControlFrames: 26007, DataFrames: 6119, Acks: 0},
	"churn":      {Generated: 200, Delivered: 193, DeliveryRatio: 0.965, AvgLatency: 40.12118569425116, AvgHops: 3.357512953367875, MaxPeakStorage: 193, AvgPeakStorage: 191.71999999999997, Duplicates: 80, ControlFrames: 20611, DataFrames: 13471, Acks: 0},
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
