package epidemic

import (
	"math"
	"reflect"
	"testing"

	"glr/internal/dtn"
	"glr/internal/fault"
	"glr/internal/geom"
	"glr/internal/metrics"
	"glr/internal/mobility"
	"glr/internal/sim"
)

// poisonedMessage is what the copy in a released data frame is
// overwritten with: values no live copy can hold. A read of it as a
// message panics on its rank or misroutes, and a read of its fields
// changes a report.
func poisonedMessage() dtn.Message {
	nan := math.NaN()
	return dtn.Message{
		ID:          dtn.MessageID{Src: -1, Seq: -1},
		Dst:         -1,
		Created:     nan,
		PayloadBits: -1,
		Hops:        -1,
		Flags:       0xff,
		DstLoc:      geom.Point{X: nan, Y: nan},
		DstLocTime:  nan,
		DstLocKnown: true,
	}
}

// poisonCounts counts the boxes a poisoning run released, by type.
type poisonCounts struct{ svs, reqs, data int }

// poison sets every free list of b to overwrite each box it gets back
// with poison and drop it, so no box is ever reused.
func (c *poisonCounts) poison(b *boxes) {
	b.svs.Poison = func(f *svFrame) {
		c.svs++
		*f = svFrame{Reply: true}
	}
	b.reqs.Poison = func(f *reqFrame) {
		c.reqs++
		f.Wanted = f.Wanted[:cap(f.Wanted)] // the release emptied it
		for i := range f.Wanted {
			f.Wanted[i] = dtn.MessageID{Src: -1, Seq: -1}
		}
	}
	b.data.Poison = func(f *dataFrame) {
		c.data++
		f.Msg = poisonedMessage()
	}
}

// restartProbe counts the messages a node held when churn restarted it,
// so a churn world shows that Restart drained full buffers.
type restartProbe struct {
	*Epidemic
	held *int
}

func (r restartProbe) Restart() {
	*r.held += r.StorageUsed()
	r.Epidemic.Restart()
}

// poolRun is what a world run over one kind of free list produced.
type poolRun struct {
	report  metrics.Report
	buffers [][]dtn.MessageID // each node's buffered ids at the end, in rank order
	restart int               // messages held by nodes at their churn restarts
}

// runOverPool runs s with every node's released boxes going to its free
// lists (counts nil) or to counts' poison hooks.
func runOverPool(t *testing.T, s sim.Scenario, counts *poisonCounts) poolRun {
	t.Helper()
	factory, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var out poolRun
	var nodes []*Epidemic
	w, err := sim.NewWorld(s, func(n *sim.Node) sim.Protocol {
		e := factory(n).(*Epidemic)
		if counts != nil {
			counts.poison(&e.boxes)
		}
		nodes = append(nodes, e)
		return restartProbe{Epidemic: e, held: &out.restart}
	})
	if err != nil {
		t.Fatal(err)
	}
	out.report = w.Run()
	ranks := nodes[0].n.MessageRanks()
	for _, e := range nodes {
		var ids []dtn.MessageID
		for r := range ranks.Len() {
			if id := ranks.ID(r); e.buf.Has(id) {
				ids = append(ids, id)
			}
		}
		out.buffers = append(out.buffers, ids)
	}
	return out
}

// TestPoolOracle runs each world twice, over the reusing free lists and
// over a poison hook that never reuses a box and overwrites each one it
// gets back, and requires identical reports and final buffers. Any read
// of a frame box after its release reads poison in the second run (or
// panics on it), so the runs part. Every frame box returns when the MAC
// resolves it; the worlds add FIFO eviction (a 5-message buffer) and
// churn restarts, which recycle the buffers' own copies (whose free
// list checkBufferSummary in internal/dtn poisons).
func TestPoolOracle(t *testing.T) {
	paper := func(seed int64) sim.Scenario {
		s := sim.DefaultScenario(100)
		s.Seed = seed
		s.SimTime = 300
		s.Traffic = sim.UniformTraffic(s.N, 150, 1, seed*977+3)
		return s
	}
	worlds := []struct {
		name  string
		world func() sim.Scenario
		check func(t *testing.T, s sim.Scenario, r poolRun)
	}{
		{"paper", func() sim.Scenario { return paper(2) }, nil},
		{"storage5", func() sim.Scenario {
			s := paper(3)
			s.StorageLimit = 5
			return s
		}, func(t *testing.T, s sim.Scenario, r poolRun) {
			if r.report.MaxPeakStorage < s.StorageLimit {
				t.Errorf("peak storage %d of a %d-message limit: no eviction", r.report.MaxPeakStorage, s.StorageLimit)
			}
		}},
		{"churn", func() sim.Scenario {
			s := paper(4)
			s.Faults = []fault.Spec{{Kind: fault.Churn, Rate: 0.01, Duration: 20}}
			return s
		}, func(t *testing.T, _ sim.Scenario, r poolRun) {
			if r.restart == 0 {
				t.Error("no node held a message when churn restarted it")
			}
		}},
	}
	for _, tc := range worlds {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.world()
			reuse := runOverPool(t, s, nil)
			var counts poisonCounts
			oracle := runOverPool(t, s, &counts)
			if !reflect.DeepEqual(reuse.report, oracle.report) {
				t.Fatalf("reports differ:\n  reusing: %+v\n  poison:  %+v", reuse.report, oracle.report)
			}
			if !reflect.DeepEqual(reuse.buffers, oracle.buffers) {
				t.Fatal("final buffers differ between the reusing and the poisoning run")
			}
			if reuse.report.Delivered == 0 || counts.svs == 0 || counts.reqs == 0 || counts.data == 0 {
				t.Fatalf("world too idle to test the pool: %d delivered, released boxes %+v", reuse.report.Delivered, counts)
			}
			if tc.check != nil {
				tc.check(t, s, reuse)
			}
		})
	}
}

// TestWarmExchangeAllocatesNothing drives whole anti-entropy exchanges on
// a static line 0 — 1 — 2 (45 m apart, 100 m range, one-message
// buffers). Node 0 holds message a, node 2 message b. Node 0 sends node
// 1 its summary, node 1 requests a, node 0 sends it, and node 1 stores
// it, evicting b; then node 2 does the same with b, evicting a. Node 0
// and node 2 never change, so their summary snapshots are taken once.
// Once the free lists are warm, a cycle allocates nothing.
func TestWarmExchangeAllocatesNothing(t *testing.T) {
	const gap = 45.0
	s := sim.DefaultScenario(100)
	s.N = 3
	s.SimTime = 1e6
	s.StorageLimit = 1
	s.Region = mobility.Region{W: 3 * gap, H: 50}
	s.Mobility = sim.MobilityTrace
	s.Traces = make([][]mobility.TracePoint, s.N)
	for i := range s.Traces {
		s.Traces[i] = []mobility.TracePoint{{T: 0, P: geom.Pt(float64(i)*gap, 25)}}
	}
	s.Traffic = []sim.TrafficItem{{Src: 0, Dst: 1, At: 5}, {Src: 2, Dst: 1, At: 5}}
	w, nodes := buildWorld(t, s)
	sched := w.Scheduler()
	sched.Run(10)
	a, b := dtn.MessageID{Src: 0, Seq: 0}, dtn.MessageID{Src: 2, Seq: 0}
	if !nodes[0].buf.Has(a) || !nodes[2].buf.Has(b) || nodes[1].StorageUsed() != 0 {
		t.Fatal("the line world exchanged its messages before the test drove it")
	}

	exchange := func(from int, id dtn.MessageID) {
		nodes[from].sendSummary(1, true)
		sched.Run(sched.Now() + 1.5)
		if !nodes[1].buf.Has(id) || nodes[1].StorageUsed() != 1 {
			t.Fatalf("node 1 did not take %v from node %d", id, from)
		}
	}
	cycle := func() {
		exchange(0, a)
		exchange(2, b)
	}
	for range 5 {
		cycle()
	}
	before := w.Collector().Report().DataFrames
	const runs = 50
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
		t.Errorf("a warm exchange cycle allocates %v times, want 0", allocs)
	}
	if got := w.Collector().Report().DataFrames - before; got != 2*(runs+1) {
		t.Fatalf("%d data frames in %d cycles, want two per cycle", got, runs+1)
	}
	if r := w.Collector().Report(); r.Delivered != 2 || r.Duplicates != 0 {
		t.Fatalf("delivered %d with %d duplicates, want both messages once", r.Delivered, r.Duplicates)
	}
}
