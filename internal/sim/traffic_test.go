package sim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"glr/internal/dtn"
	"glr/internal/metrics"
)

// scheduleTrafficPerItem is the oracle scheduleTraffic is checked
// against: one At call per traffic item, in slice order, each with its
// own closure.
func scheduleTrafficPerItem(w *World) {
	seq := make([]int, w.cfg.N)
	for _, ti := range w.cfg.Traffic {
		w.sched.At(ti.At, func() {
			m := &dtn.Message{
				ID:          dtn.MessageID{Src: ti.Src, Seq: seq[ti.Src]},
				Dst:         ti.Dst,
				Created:     w.sched.Now(),
				PayloadBits: payloadBits,
			}
			seq[ti.Src]++
			w.collector.Created(w.messageRanks(), m.ID, m.Created, m.Dst)
			w.nodes[ti.Src].proto.OnMessageGenerated(m)
		})
	}
}

// generated is one OnMessageGenerated call as a node saw it.
type generated struct {
	node int
	id   dtn.MessageID
	dst  int
	at   float64
}

// genLogProtocol is directProtocol logging every message it generates.
type genLogProtocol struct {
	directProtocol
	log *[]generated
}

func (p *genLogProtocol) OnMessageGenerated(m *dtn.Message) {
	*p.log = append(*p.log, generated{p.n.ID(), m.ID, m.Dst, p.n.Now()})
	p.directProtocol.OnMessageGenerated(m)
}

// TestTrafficSeriesMatchesPerItemAt: a world arming its traffic as one
// series generates the same messages, with the same ids, at the same
// instants and in the same order, as one arming an At per item, and
// reports the same, for traffic that is sorted, shuffled, and tied with
// itself and with the world's own events (reindex ticks on whole
// seconds, storage samples and test-protocol ticks on half seconds).
func TestTrafficSeriesMatchesPerItemAt(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sorted := UniformTraffic(10, 80, 3, 5)
	tied := make([]TrafficItem, len(sorted))
	for i, ti := range sorted {
		ti.At = math.Floor(ti.At*2) / 2 // whole and half seconds, several items each
		tied[i] = ti
	}
	shuffle := func(items []TrafficItem) []TrafficItem {
		out := make([]TrafficItem, len(items))
		for i, j := range rng.Perm(len(items)) {
			out[i] = items[j]
		}
		return out
	}
	cases := map[string][]TrafficItem{
		"sorted":         sorted,
		"shuffled":       shuffle(sorted),
		"tied":           tied,
		"shuffled tied":  shuffle(tied),
		"one source":     {{Src: 3, Dst: 4, At: 2}, {Src: 3, Dst: 5, At: 1}, {Src: 3, Dst: 6, At: 2}, {Src: 3, Dst: 7, At: 0}},
		"single at zero": {{Src: 1, Dst: 2, At: 0}},
		"none":           nil,
	}
	type run struct {
		report    metrics.Report
		log       []generated
		processed uint64
	}
	do := func(traffic []TrafficItem, schedTraffic func(*World)) run {
		s := smallScenario()
		s.Traffic = traffic
		var log []generated
		w, err := newWorld(s, func(*Node) Protocol { return &genLogProtocol{log: &log} }, s.macConfig(), schedTraffic)
		if err != nil {
			t.Fatal(err)
		}
		return run{report: w.Run(), log: log, processed: w.Scheduler().Processed()}
	}
	for name, traffic := range cases {
		t.Run(name, func(t *testing.T) {
			got := do(traffic, (*World).scheduleTraffic)
			want := do(traffic, scheduleTrafficPerItem)
			if !reflect.DeepEqual(got.log, want.log) {
				t.Fatalf("series generated\n%v\nper-item At\n%v", got.log, want.log)
			}
			if !reflect.DeepEqual(got.report, want.report) || got.processed != want.processed {
				t.Fatalf("series: %d events, %+v\nper-item At: %d events, %+v", got.processed, got.report, want.processed, want.report)
			}
			if len(got.log) != len(traffic) {
				t.Fatalf("%d of %d messages generated", len(got.log), len(traffic))
			}
		})
	}
}
