package core

import (
	"testing"

	"glr/internal/metrics"
	"glr/internal/sim"
)

// pinnedWorlds are short seeded 50-node GLR worlds: the paper's waypoint
// mobility, and static placements under the LDTG and Gabriel spanners.
// In a static world every node asks the spanner the same query at each
// route check, at times with its two-hop view listed in a new order; the
// static seeds and ranges are ones where an answer that kept an earlier
// view's order changed the report.
var pinnedWorlds = []struct {
	name     string
	mobility sim.MobilityKind
	spanner  SpannerKind
	seed     int64
	rangeM   float64
}{
	{"waypoint", sim.MobilityWaypoint, SpannerLDTG, 2, 100},
	{"static", sim.MobilityStatic, SpannerLDTG, 4, 100},
	{"static-gabriel", sim.MobilityStatic, SpannerGabriel, 3, 200},
}

// pinnedReports are the exact reports of pinnedWorlds. The waypoint
// literal fails on any change to the frames a mobile world sends; the
// static literals fail if a spanner answer depends on anything but the
// view it was asked for, such as the order of an earlier query's view.
var pinnedReports = map[string]metrics.Report{
	"waypoint":       {Generated: 200, Delivered: 200, DeliveryRatio: 1, AvgLatency: 12.256703692854778, AvgHops: 14.834999999999999, MaxPeakStorage: 14, AvgPeakStorage: 6.359999999999999, Duplicates: 0, ControlFrames: 15000, DataFrames: 5859, Acks: 5585},
	"static":         {Generated: 200, Delivered: 25, DeliveryRatio: 0.125, AvgLatency: 0.9753874127837606, AvgHops: 2.12, MaxPeakStorage: 41, AvgPeakStorage: 7.079999999999999, Duplicates: 0, ControlFrames: 15000, DataFrames: 49005, Acks: 48792},
	"static-gabriel": {Generated: 200, Delivered: 93, DeliveryRatio: 0.465, AvgLatency: 1.2399107276801098, AvgHops: 2.333333333333333, MaxPeakStorage: 37, AvgPeakStorage: 5.2200000000000015, Duplicates: 0, ControlFrames: 15000, DataFrames: 22758, Acks: 22692},
}

func runPinned(t *testing.T, mob sim.MobilityKind, spanner SpannerKind, seed int64, rangeM float64) metrics.Report {
	t.Helper()
	s := sim.DefaultScenario(rangeM)
	s.Seed = seed
	s.Mobility = mob
	s.Traffic = sim.PaperTraffic(200)
	s.SimTime = 300
	cfg := DefaultConfig()
	cfg.Spanner = spanner
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sim.NewWorld(s, f)
	if err != nil {
		t.Fatal(err)
	}
	return w.Run()
}

// TestGLRPinnedResults checks pinnedWorlds against their pinned reports.
// A mismatch prints the fresh report as a Go literal.
func TestGLRPinnedResults(t *testing.T) {
	for _, pw := range pinnedWorlds {
		got := runPinned(t, pw.mobility, pw.spanner, pw.seed, pw.rangeM)
		if want, ok := pinnedReports[pw.name]; !ok || got != want {
			t.Errorf("%s:\n got  %#v\n want %#v", pw.name, got, want)
		}
	}
}
