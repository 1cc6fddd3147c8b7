package sim

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"glr/internal/des"
	"glr/internal/metrics"
	"glr/internal/mobility"
	"glr/internal/rng"
)

// hello is one sent beacon in a logged schedule.
type hello struct {
	id int
	at float64
}

// logRing runs a beacon ring over phases to horizon on a fresh scheduler
// and logs every hello it sends, plus each firing's due batch.
func logRing(phases []float64, interval, horizon float64) (log []hello, batches [][]int, sched *des.Scheduler) {
	sched = des.NewScheduler()
	newBeaconRing(sched, interval, phases, func(due []int) {
		batches = append(batches, append([]int(nil), due...))
		for _, id := range due {
			log = append(log, hello{id, sched.Now()})
		}
	}).arm()
	sched.Run(horizon)
	return log, batches, sched
}

// perNodeSchedule is the independent computation of the beacon schedule:
// node i fires at phase_i, phase_i+I, (phase_i+I)+I, … up to horizon,
// and all hellos are sorted by (time, id).
func perNodeSchedule(phases []float64, interval, horizon float64) []hello {
	var want []hello
	for id, p := range phases {
		for at := p; at <= horizon; at += interval {
			want = append(want, hello{id, at})
		}
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].id < want[j].id
	})
	return want
}

// TestBeaconAggregationEquivalence: the single beacon ring must send
// exactly the per-node schedule sorted by (time, id). Phases mix uniform
// draws, bit-equal copies of earlier phases, and phases one ulp below
// earlier ones — distinct at first, merged by rounding once the interval
// is added — so ties of both kinds occur, with ids in either order.
func TestBeaconAggregationEquivalence(t *testing.T) {
	const interval, horizon = 1.0, 40.0
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		phases := make([]float64, 5+rng.Intn(60))
		for i := range phases {
			switch k := rng.Intn(4); {
			case k == 0 && i > 0:
				phases[i] = phases[rng.Intn(i)]
			case k == 1 && i > 0:
				phases[i] = math.Nextafter(phases[rng.Intn(i)], 0)
			default:
				phases[i] = rng.Float64() * interval
			}
		}
		got, _, sched := logRing(phases, interval, horizon)
		want := perNodeSchedule(phases, interval, horizon)
		if !reflect.DeepEqual(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("trial %d: ring schedule diverges from the per-node schedule at hello %d (%d vs %d hellos)",
				trial, i, len(got), len(want))
		}
		if p := sched.Pending(); p != 1 {
			t.Fatalf("trial %d: ring keeps %d events pending, want 1", trial, p)
		}
	}
}

// TestPhasesCollide: a world forced to draw bit-equal phases replays
// identically twice and sends exactly the hellos of the per-node
// schedule. A beacon interval of eight subnormal ulps quantizes the
// world's uniform phase draws onto nine values, so 40 nodes must share
// them; the horizon ends long before any frame finishes airing.
func TestPhasesCollide(t *testing.T) {
	s := DefaultScenario(250)
	s.N = 40
	s.Region = mobility.Region{W: 300, H: 300}
	s.Mobility = MobilityStatic
	s.BeaconInterval = 8 * math.SmallestNonzeroFloat64
	s.SimTime = 200 * math.SmallestNonzeroFloat64

	// The world draws one phase per node, in id order, from its RNG.
	stream := rng.New(s.Seed)
	phases := make([]float64, s.N)
	distinct := map[float64]bool{}
	for i := range phases {
		phases[i] = stream.Float64() * s.BeaconInterval
		distinct[phases[i]] = true
	}
	if len(distinct) == len(phases) {
		t.Fatal("phases did not collide; the test is vacuous")
	}

	run := func() (metrics.Report, any) {
		w, err := NewWorld(s, func(*Node) Protocol { return nopProtocol{} })
		if err != nil {
			t.Fatal(err)
		}
		rep := w.Run()
		return rep, w.Medium().Stats()
	}
	rep1, mac1 := run()
	rep2, mac2 := run()
	if rep1 != rep2 || mac1 != mac2 {
		t.Fatalf("replay diverged:\n%+v %+v\nvs\n%+v %+v", rep1, mac1, rep2, mac2)
	}
	if want := len(perNodeSchedule(phases, s.BeaconInterval, s.SimTime)); rep1.ControlFrames != uint64(want) {
		t.Fatalf("world sent %d hellos, want %d", rep1.ControlFrames, want)
	}
}

// TestBeaconGroupRingOrder documents the cursor invariant on a crafted
// ring: one event per distinct fire time, in phase order, cycling;
// bit-equal phases fire under one event in id order. A small static
// world sends one hello per node per interval.
func TestBeaconGroupRingOrder(t *testing.T) {
	phases := []float64{0.5, 0.25, 0.5, 0.875, 0.25}
	_, batches, _ := logRing(phases, 1, 2.5)
	want := [][]int{{1, 4}, {0, 2}, {3}, {1, 4}, {0, 2}, {3}, {1, 4}, {0, 2}}
	if !reflect.DeepEqual(batches, want) {
		t.Fatalf("ring batches %v, want %v", batches, want)
	}

	s := DefaultScenario(100)
	s.N = 6
	s.SimTime = 3.5
	s.Mobility = MobilityStatic
	w, err := NewWorld(s, func(*Node) Protocol { return nopProtocol{} })
	if err != nil {
		t.Fatal(err)
	}
	// Every node beacons once per interval; over 3.5 intervals each
	// fires either 3 or 4 times depending on phase.
	if got := w.Run().ControlFrames; got < uint64(3*s.N) || got > uint64(4*s.N) {
		t.Fatalf("%d control frames over %v s, want %d..%d", got, s.SimTime, 3*s.N, 4*s.N)
	}
}
