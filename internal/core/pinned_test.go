package core

import (
	"testing"

	"glr/internal/ldt"
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
	spanner  ldt.Variant
	seed     int64
	rangeM   float64
}{
	{"waypoint", sim.MobilityWaypoint, ldt.VariantLDTG, 2, 100},
	{"static", sim.MobilityStatic, ldt.VariantLDTG, 4, 100},
	{"static-gabriel", sim.MobilityStatic, ldt.VariantGabriel, 3, 200},
}

// pinnedReports are the exact reports of pinnedWorlds. The waypoint
// literal fails on any change to the frames a mobile world sends; the
// static literals fail if a spanner answer depends on anything but the
// view it was asked for, such as the order of an earlier query's view.
// The static seeds and ranges were chosen under math/rand (v1) streams;
// under rng.New streams they are not known to have that property.
var pinnedReports = map[string]metrics.Report{
	"waypoint":       {Generated: 200, Delivered: 197, DeliveryRatio: 0.985, AvgLatency: 14.68992622990871, AvgHops: 17.624365482233493, MaxPeakStorage: 25, AvgPeakStorage: 7.46, Duplicates: 0, ControlFrames: 15000, DataFrames: 7646, Acks: 7217},
	"static":         {Generated: 200, Delivered: 31, DeliveryRatio: 0.155, AvgLatency: 0.9518381022142137, AvgHops: 2.4516129032258074, MaxPeakStorage: 31, AvgPeakStorage: 6.3, Duplicates: 0, ControlFrames: 15000, DataFrames: 42497, Acks: 42351},
	"static-gabriel": {Generated: 200, Delivered: 185, DeliveryRatio: 0.925, AvgLatency: 2.6619673188427253, AvgHops: 5.799999999999997, MaxPeakStorage: 11, AvgPeakStorage: 1.5800000000000003, Duplicates: 0, ControlFrames: 15000, DataFrames: 4497, Acks: 4495},
}

func runPinned(t *testing.T, mob sim.MobilityKind, spanner ldt.Variant, seed int64, rangeM float64) metrics.Report {
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
