package sim

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"glr/internal/des"
)

// hello is one sent beacon in a logged schedule.
type hello struct {
	id int
	at float64
}

// logRing runs a beacon ring over phases to horizon on a fresh scheduler
// and logs every hello it sends, plus each firing's due batch.
func logRing(phases []float64, horizon float64) (log []hello, batches [][]int, sched *des.Scheduler) {
	sched = des.NewScheduler()
	newBeaconRing(sched, phases, func(due []int) {
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
// for I the beaconInterval, and all hellos are sorted by (time, id).
func perNodeSchedule(phases []float64, horizon float64) []hello {
	var want []hello
	for id, p := range phases {
		for at := p; at <= horizon; at += beaconInterval {
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
	const horizon = 40.0
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
				phases[i] = rng.Float64() * beaconInterval
			}
		}
		got, _, sched := logRing(phases, horizon)
		want := perNodeSchedule(phases, horizon)
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

// TestPhasesCollide: on crafted phases the ring sends exactly the
// per-node schedule. Nodes 0–7 come in interleaved groups of bit-equal
// phases; nodes 8–15 come in two runs a few ulps apart, in descending
// phase order, distinct at first and merged by rounding once enough
// beacon intervals have been added. Both kinds of tie must show up in
// the logged batches, and each batch must list its ids ascending.
func TestPhasesCollide(t *testing.T) {
	phases := []float64{0.75, 0.25, 0.75, 0.25, 0.5, 0.25, 0.5, 0.75}
	for _, p := range []float64{0.1, 0.3} {
		phases = append(phases, p+0x1p-52, p+0x1p-53, p+0x1p-54, p)
	}
	const horizon = 40.0
	got, batches, _ := logRing(phases, horizon)
	if want := perNodeSchedule(phases, horizon); !reflect.DeepEqual(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("ring schedule diverges from the per-node schedule at hello %d (%d vs %d hellos)", i, len(got), len(want))
	}
	bitEqual, merged := false, false
	for _, b := range batches {
		for _, id := range b[1:] {
			if phases[id] == phases[b[0]] {
				bitEqual = true
			} else {
				merged = true
			}
		}
	}
	if !bitEqual || !merged {
		t.Fatalf("bit-equal ties fired together: %v, distinct phases merged: %v; the test is vacuous", bitEqual, merged)
	}
}

// TestNeighborExpiryOutlastsBeacon: a neighbor expires only after it has
// missed at least one whole hello period, so a live neighbor is never
// dropped between two of its hellos.
func TestNeighborExpiryOutlastsBeacon(t *testing.T) {
	if !(neighborExpiry > beaconInterval) {
		t.Fatalf("neighborExpiry %v must exceed beaconInterval %v", neighborExpiry, beaconInterval)
	}
}

// TestBeaconGroupRingOrder documents the cursor invariant on a crafted
// ring: one event per distinct fire time, in phase order, cycling;
// bit-equal phases fire under one event in id order. A small static
// world sends one hello per node per interval.
func TestBeaconGroupRingOrder(t *testing.T) {
	phases := []float64{0.5, 0.25, 0.5, 0.875, 0.25}
	_, batches, _ := logRing(phases, 2.5)
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
