package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"glr/internal/dtn"
	"glr/internal/geom"
	"glr/internal/mobility"
	"glr/internal/sim"
)

// beaconLog is the map-backed reference for one node's neighbor table:
// the latest beacon heard from each neighbor, rebuilt from the beacon
// stream the protocol sees, independently of the table backend.
type beaconLog struct {
	*GLR
	rows map[int]dtn.NeighborInfo
}

// OnBeacon records the beacon, then hands it to the protocol.
func (p *beaconLog) OnBeacon(b sim.Beacon) {
	p.rows[b.From] = dtn.NeighborInfo{
		ID:        b.From,
		Pos:       b.Pos,
		LastSeen:  b.Time,
		Neighbors: append([]dtn.NeighborNeighbor(nil), b.Neighbors...),
	}
	p.GLR.OnBeacon(b)
}

// twoHopAt is the reference two-hop view at now: self first, then the
// rows heard within neighborExpiry in ascending id order, each followed
// by its unseen advertised neighbors.
func (p *beaconLog) twoHopAt(now float64) ([]int, []geom.Point) {
	ids := []int{p.n.ID()}
	pts := []geom.Point{p.n.Pos()}
	var live []int
	for id, r := range p.rows {
		if r.LastSeen > now-neighborExpiry {
			live = append(live, id)
		}
	}
	sort.Ints(live)
	seen := map[int]bool{p.n.ID(): true}
	for _, id := range live {
		r := p.rows[id]
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
			pts = append(pts, r.Pos)
		}
		for _, nn := range r.Neighbors {
			if !seen[nn.ID] {
				seen[nn.ID] = true
				ids = append(ids, nn.ID)
				pts = append(pts, nn.Pos)
			}
		}
	}
	return ids, pts
}

// loggedWorld wires a GLR world whose nodes log their beacons.
func loggedWorld(t *testing.T, s sim.Scenario, cfg Config) (*sim.World, []*beaconLog) {
	t.Helper()
	factory, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var logs []*beaconLog
	w, err := sim.NewWorld(s, func(n *sim.Node) sim.Protocol {
		p := &beaconLog{GLR: factory(n).(*GLR), rows: make(map[int]dtn.NeighborInfo)}
		logs = append(logs, p)
		return p
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, logs
}

// neighborExpiry is the simulator's fixed neighbor expiry: sim drops a
// neighbor unheard for 2.5 s (see the sim package doc).
const neighborExpiry = 2.5

// checkTablesAgainstLog compares every node's table view at the current
// instant — read through the same expire-then-assemble path a route
// check takes — with the reference rebuilt from its beacon log,
// returning the number of rows compared.
func checkTablesAgainstLog(t *testing.T, w *sim.World, logs []*beaconLog, label string) int {
	t.Helper()
	now := w.Scheduler().Now()
	rows := 0
	for i, p := range logs {
		n := w.Node(i)
		gotIDs, gotPts := n.Neighbors().AppendTwoHop(nil, nil, i, n.Pos())
		wantIDs, wantPts := p.twoHopAt(now)
		if !reflect.DeepEqual(gotIDs, wantIDs) || !reflect.DeepEqual(gotPts, wantPts) {
			t.Fatalf("%s node %d: table view %v != beacon-log reference %v", label, i, gotIDs, wantIDs)
		}
		rows += len(gotIDs) - 1
	}
	return rows
}

// TestDenseTablesRunEquivalence: across randomized mobile scenarios, at
// checkpoints over the whole run, every node's neighbor table must serve
// exactly the two-hop view a map-backed reference rebuilt from the
// beacons the node heard gives. Any divergence means the table changed
// an observation order or a routing input. (The name dates from the
// id-indexed table layout it first guarded; it keeps the per-seed
// subtest names stable.)
func TestDenseTablesRunEquivalence(t *testing.T) {
	const trials = 15
	delivered := 0
	for trial := 0; trial < trials; trial++ {
		t.Run(fmt.Sprintf("seed=%d", trial), func(t *testing.T) {
			s := equivScenario(trial)
			w, logs := loggedWorld(t, s, equivConfig(trial))
			rows := 0
			for until := 5.0; until < s.SimTime; until += 5 {
				w.Scheduler().Run(until)
				rows += checkTablesAgainstLog(t, w, logs, fmt.Sprintf("t=%.0f", until))
			}
			if rows == 0 {
				t.Fatal("no table rows compared")
			}
			delivered += w.Run().Delivered
		})
	}
	if delivered == 0 {
		t.Fatal("equivalence suite delivered nothing; scenarios too hostile to be meaningful")
	}
}

// TestTablesFullStackEquivalence runs both run-scale oracles at once on
// a 2100-node world: every node's table view matches its beacon log, and
// every node's cached spanner matches the reference construction.
func TestTablesFullStackEquivalence(t *testing.T) {
	const n = 2100
	h := math.Sqrt(n / (50.0 / (1500 * 300)) / 5)
	s := sim.DefaultScenario(100)
	s.N = n
	s.Region = mobility.Region{W: 5 * h, H: h}
	s.SimTime = 6
	s.Traffic = sim.UniformTraffic(n, 50, 10, 3)
	w, logs := loggedWorld(t, s, DefaultConfig())
	instances := make([]*GLR, len(logs))
	for i, p := range logs {
		instances[i] = p.GLR
	}
	w.Scheduler().Run(3)
	if rows := checkTablesAgainstLog(t, w, logs, "t=3"); rows == 0 {
		t.Fatal("no table rows compared")
	}
	if checkSpannersAgainstReference(t, instances, "t=3") == 0 {
		t.Fatal("no node had a spanner view to compare")
	}
	w.Scheduler().Run(s.SimTime)
	checkTablesAgainstLog(t, w, logs, "t=6")
}
