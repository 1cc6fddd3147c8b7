package mac

import (
	"math"
	"slices"
	"testing"

	"glr/internal/des"
	"glr/internal/geom"
)

// testNet wires radios at fixed positions onto a fresh medium and records
// receptions and send outcomes per radio.
type testNet struct {
	sched  *des.Scheduler
	medium *Medium
	radios []*Radio
	recv   [][]*Frame
	sent   []map[*Frame]bool
}

func newTestNet(t *testing.T, cfg Config, positions []geom.Point) *testNet {
	t.Helper()
	sched := des.NewScheduler()
	var w, h float64
	for _, p := range positions {
		w, h = max(w, p.X), max(h, p.Y)
	}
	m, err := NewMedium(sched, cfg, 99, w, h, len(positions), func(id int) geom.Point { return positions[id] })
	if err != nil {
		t.Fatal(err)
	}
	n := &testNet{sched: sched, medium: m}
	n.recv = make([][]*Frame, len(positions))
	n.sent = make([]map[*Frame]bool, len(positions))
	for i := range positions {
		n.sent[i] = make(map[*Frame]bool)
		r, err := m.AddRadio(i,
			func(f *Frame) { n.recv[i] = append(n.recv[i], f) },
			func(f *Frame, ok bool) { n.sent[i][f] = ok },
		)
		if err != nil {
			t.Fatal(err)
		}
		n.radios = append(n.radios, r)
	}
	return n
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero range", func(c *Config) { c.Range = 0 }},
		{"NaN range", func(c *Config) { c.Range = math.NaN() }},
		{"infinite range", func(c *Config) { c.Range = math.Inf(1) }},
		{"range overflows interference reach", func(c *Config) { c.Range = 1e308 }},
		{"negative index slack", func(c *Config) { c.IndexSlack = -1 }},
		{"NaN index slack", func(c *Config) { c.IndexSlack = math.NaN() }},
		{"infinite index slack", func(c *Config) { c.IndexSlack = math.Inf(1) }},
		{"index slack overflows query radius", func(c *Config) { c.Range, c.IndexSlack = 5e307, math.MaxFloat64 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := Config{Range: 100}
			tt.mutate(&cfg)
			if cfg.Validate() == nil {
				t.Error("expected validation error")
			}
		})
	}
	if err := (Config{Range: 100}).Validate(); err != nil {
		t.Errorf("a 100 m radio is invalid: %v", err)
	}
}

func TestAddRadioOrderEnforced(t *testing.T) {
	sched := des.NewScheduler()
	m, _ := NewMedium(sched, Config{Range: 100}, 1, 0, 0, 1, func(int) geom.Point { return geom.Pt(0, 0) })
	if _, err := m.AddRadio(3, nil, nil); err == nil {
		t.Error("out-of-order radio id accepted")
	}
}

func TestBroadcastReachesAllInRange(t *testing.T) {
	// Radios at 0, 80, 160, 400 m; range 100 m. A broadcast from radio 0
	// reaches only radio 1.
	cfg := Config{Range: 100}
	n := newTestNet(t, cfg, []geom.Point{
		geom.Pt(0, 0), geom.Pt(80, 0), geom.Pt(160, 0), geom.Pt(400, 0),
	})
	f := &Frame{Dst: Broadcast, Bits: 8000, Payload: "hello"}
	n.sched.At(0, func() { n.radios[0].Send(f) })
	n.sched.Run(1)
	if len(n.recv[1]) != 1 || n.recv[1][0].Payload != "hello" {
		t.Errorf("radio 1 should receive the broadcast, got %v", n.recv[1])
	}
	if len(n.recv[2]) != 0 || len(n.recv[3]) != 0 {
		t.Error("out-of-range radios must not receive")
	}
	if ok, exists := n.sent[0][f]; !exists || !ok {
		t.Error("broadcast sender should observe ok=true completion")
	}
}

func TestUnicastDeliveredOnlyToDestination(t *testing.T) {
	cfg := Config{Range: 100}
	n := newTestNet(t, cfg, []geom.Point{geom.Pt(0, 0), geom.Pt(50, 0), geom.Pt(90, 0)})
	f := &Frame{Dst: 2, Bits: 8000}
	n.sched.At(0, func() { n.radios[0].Send(f) })
	n.sched.Run(1)
	if len(n.recv[2]) != 1 {
		t.Error("destination did not receive unicast")
	}
	if len(n.recv[1]) != 0 {
		t.Error("bystander should not see unicast payloads")
	}
	if ok := n.sent[0][f]; !ok {
		t.Error("sender should observe successful unicast")
	}
}

// TestUnicastFastPathMatchesBroadcastReachability pins down the unicast
// fast path: with many radios packed inside reception range, a unicast
// must invoke onRecv on the destination only, while the identical
// broadcast run proves the destination was reachable the same way —
// Stats.Delivered is 1 for the unicast vs one reception per in-range
// radio for the broadcast.
func TestUnicastFastPathMatchesBroadcastReachability(t *testing.T) {
	positions := []geom.Point{
		geom.Pt(0, 0), geom.Pt(30, 0), geom.Pt(0, 30), geom.Pt(30, 30), geom.Pt(60, 0),
	}
	run := func(dst int) (*testNet, Stats) {
		cfg := Config{Range: 100}
		n := newTestNet(t, cfg, positions)
		n.sched.At(0, func() { n.radios[0].Send(&Frame{Dst: dst, Bits: 8000, Payload: "fp"}) })
		n.sched.Run(1)
		return n, n.medium.Stats()
	}

	uni, uniStats := run(3)
	for i := range positions {
		want := 0
		if i == 3 {
			want = 1
		}
		if got := len(uni.recv[i]); got != want {
			t.Errorf("unicast: radio %d received %d frames, want %d", i, got, want)
		}
	}
	if uniStats.Delivered != 1 {
		t.Errorf("unicast Delivered = %d, want 1", uniStats.Delivered)
	}

	bc, bcStats := run(Broadcast)
	if got := len(bc.recv[3]); got != 1 {
		t.Fatalf("broadcast-equivalent run: destination received %d frames, want 1", got)
	}
	// Every radio is within 100 m of the sender, so the broadcast
	// delivers once per non-sender — the unicast count matches the
	// destination's share of it exactly.
	if want := uint64(len(positions) - 1); bcStats.Delivered != want {
		t.Errorf("broadcast Delivered = %d, want %d", bcStats.Delivered, want)
	}
	if len(bc.recv[3]) != len(uni.recv[3]) {
		t.Errorf("destination receptions differ: broadcast %d vs unicast %d", len(bc.recv[3]), len(uni.recv[3]))
	}
}

// TestUnicastSelfAddressedFails pins the fast path's guard: a frame
// addressed to its own sender is never delivered (the naive loop always
// skipped the sender) and fails after the retry budget.
func TestUnicastSelfAddressedFails(t *testing.T) {
	cfg := Config{Range: 100}
	n := newTestNet(t, cfg, []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)})
	f := &Frame{Dst: 0, Bits: 800}
	n.sched.At(0, func() { n.radios[0].Send(f) })
	n.sched.Run(5)
	if ok, exists := n.sent[0][f]; !exists || ok {
		t.Error("self-addressed unicast should complete with ok=false")
	}
	if got := n.medium.Stats().Delivered; got != 0 {
		t.Errorf("Delivered = %d, want 0", got)
	}
}

func TestUnicastOutOfRangeFailsAfterRetries(t *testing.T) {
	cfg := Config{Range: 100}
	n := newTestNet(t, cfg, []geom.Point{geom.Pt(0, 0), geom.Pt(500, 0)})
	f := &Frame{Dst: 1, Bits: 8000}
	n.sched.At(0, func() { n.radios[0].Send(f) })
	n.sched.Run(5)
	if ok, exists := n.sent[0][f]; !exists || ok {
		t.Error("unreachable unicast should complete with ok=false")
	}
	if got := n.medium.Stats().UnicastFailures; got != 1 {
		t.Errorf("UnicastFailures = %d, want 1", got)
	}
	// Retries were attempted: transmissions > 1.
	if got := n.medium.Stats().Transmissions; got != maxRetries+1 {
		t.Errorf("Transmissions = %d, want %d", got, maxRetries+1)
	}
}

func TestFrameAirtimeSerialization(t *testing.T) {
	// A 1000-byte payload at 1 Mbps takes 8 ms plus header time; the
	// receive event must land at exactly start + airtime.
	cfg := Config{Range: 100}
	n := newTestNet(t, cfg, []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)})
	var recvAt des.Time = -1
	n.medium.radios[1].onRecv = func(*Frame) { recvAt = n.sched.Now() }
	n.sched.At(0, func() { n.radios[0].Send(&Frame{Dst: Broadcast, Bits: 8000}) })
	n.sched.Run(1)
	want := float64(headerBits+8000) / bitRate
	if recvAt != want {
		t.Errorf("received at %v, want %v", recvAt, want)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	n := newTestNet(t, Config{Range: 100}, []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)})
	accepted := 0
	n.sched.At(0, func() {
		for i := 0; i < queueLen+7; i++ {
			if n.radios[0].Send(&Frame{Dst: Broadcast, Bits: 8000}) {
				accepted++
			}
		}
	})
	n.sched.Run(10)
	// First frame starts transmitting immediately (leaves the queue is
	// not modelled — the head stays queued until completion), so only
	// queueLen frames are accepted.
	if accepted != queueLen {
		t.Errorf("accepted %d frames, want %d", accepted, queueLen)
	}
	if drops := n.medium.Stats().QueueDrops; drops != 7 {
		t.Errorf("QueueDrops = %d, want 7", drops)
	}
	if len(n.recv[1]) != queueLen {
		t.Errorf("receiver got %d frames, want %d", len(n.recv[1]), queueLen)
	}
}

func TestCarrierSenseSerializesNeighbors(t *testing.T) {
	// Two senders in carrier-sense range both broadcast at t=0; the
	// second must defer, so the common receiver gets both frames.
	cfg := Config{Range: 100}
	n := newTestNet(t, cfg, []geom.Point{geom.Pt(0, 0), geom.Pt(40, 0), geom.Pt(20, 10)})
	n.sched.At(0, func() { n.radios[0].Send(&Frame{Dst: Broadcast, Bits: 8000}) })
	n.sched.At(1e-9, func() { n.radios[1].Send(&Frame{Dst: Broadcast, Bits: 8000}) })
	n.sched.Run(1)
	if len(n.recv[2]) != 2 {
		t.Errorf("receiver got %d frames, want 2 (carrier sense should avoid the collision)", len(n.recv[2]))
	}
	if n.medium.Stats().BusyDeferrals == 0 {
		t.Error("expected at least one busy deferral")
	}
}

func TestHiddenTerminalCollision(t *testing.T) {
	// Senders 0 and 2 (255 m apart) cannot sense each other, and
	// receiver 1 hears 0 while 2 is close enough to corrupt what it
	// hears (hiddenLine): simultaneous broadcasts collide at 1.
	n := newTestNet(t, Config{Range: 100}, hiddenLine)
	n.sched.At(0, func() { n.radios[0].Send(&Frame{Dst: Broadcast, Bits: 8000}) })
	n.sched.At(0, func() { n.radios[2].Send(&Frame{Dst: Broadcast, Bits: 8000}) })
	n.sched.Run(1)
	if len(n.recv[1]) != 0 {
		t.Errorf("hidden-terminal collision should corrupt both frames, receiver got %d", len(n.recv[1]))
	}
	if n.medium.Stats().Collisions == 0 {
		t.Error("collision counter should increment")
	}
}

func TestUnicastRetrySucceedsAfterCollision(t *testing.T) {
	// Hidden terminal corrupts the first airing of a unicast, but the
	// interferer sends only once; the retry must succeed. The
	// interferer is beyond reception range of the receiver, so the
	// unicast's reservation does not reach it either (hiddenLine).
	n := newTestNet(t, Config{Range: 100}, hiddenLine)
	f := &Frame{Dst: 1, Bits: 8000}
	n.sched.At(0, func() { n.radios[0].Send(f) })
	n.sched.At(0, func() { n.radios[2].Send(&Frame{Dst: Broadcast, Bits: 8000}) })
	n.sched.Run(5)
	if ok := n.sent[0][f]; !ok {
		t.Error("unicast should succeed on retry after the interferer goes quiet")
	}
	if len(n.recv[1]) != 1 {
		t.Errorf("receiver should end up with exactly the unicast frame, got %d", len(n.recv[1]))
	}
}

func TestHalfDuplexCannotReceiveWhileSending(t *testing.T) {
	// Radio 1 starts a long broadcast 250 m from radio 0, then moves next
	// to it. Its airing stays anchored where it began, beyond radio 0's
	// carrier sense, so radio 0 sends it a unicast while it is still on
	// the air: every airing of that unicast reaches radio 1 in range and
	// uncontested, and every one is lost because radio 1 is transmitting.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(250, 0)}
	n := newTestNet(t, Config{Range: 100}, pts)
	f := &Frame{Dst: 1, Bits: 800}
	n.sched.At(0, func() { n.radios[1].Send(&Frame{Dst: Broadcast, Bits: 80000}) })
	n.sched.At(0.001, func() {
		pts[1] = geom.Pt(50, 0)
		n.radios[0].Send(f)
	})
	n.sched.Run(2)
	if ok, exists := n.sent[0][f]; !exists || ok {
		t.Error("a unicast to a transmitting radio should fail")
	}
	if len(n.recv[1]) != 0 {
		t.Errorf("radio 1 received %d frames while on the air", len(n.recv[1]))
	}
	if c := n.medium.Stats().Collisions; c != maxRetries+1 {
		t.Errorf("Collisions = %d, want %d: every airing lands inside radio 1's own", c, maxRetries+1)
	}
}

func TestStatsAccounting(t *testing.T) {
	cfg := Config{Range: 100}
	n := newTestNet(t, cfg, []geom.Point{geom.Pt(0, 0), geom.Pt(50, 0)})
	n.sched.At(0, func() {
		n.radios[0].Send(&Frame{Dst: 1, Bits: 8000})
		n.radios[0].Send(&Frame{Dst: Broadcast, Bits: 8000})
	})
	n.sched.Run(1)
	st := n.medium.Stats()
	if st.FramesQueued != 2 {
		t.Errorf("FramesQueued = %d, want 2", st.FramesQueued)
	}
	if st.Delivered != 2 {
		t.Errorf("Delivered = %d, want 2", st.Delivered)
	}
	// Per-radio outcomes, from the send and receive callbacks: both
	// frames completed ok on the sender (none failed, none dropped at
	// the queue), and only the other radio received them.
	sentOK, sentFail := 0, 0
	for _, ok := range n.sent[0] {
		if ok {
			sentOK++
		} else {
			sentFail++
		}
	}
	if sentOK != 2 || sentFail != 0 || st.QueueDrops != 0 {
		t.Errorf("sender outcomes = (%d ok, %d failed, %d queue drops), want (2,0,0)", sentOK, sentFail, st.QueueDrops)
	}
	if recv, recv1 := len(n.recv[0]), len(n.recv[1]); recv != 0 || recv1 != 2 {
		t.Errorf("receptions: sender=%d receiver=%d, want 0 and 2", recv, recv1)
	}
}

func TestManyContendersAllFramesEventuallyDeliver(t *testing.T) {
	// 8 mutually-in-range radios each broadcast 5 frames starting at the
	// same instant. Carrier sense plus random backoff must serialize all
	// 40 airings without loss (broadcasts are not acked, but within CS
	// range collisions can only happen on identical backoff expiry, which
	// retries... broadcasts do not retry — so assert a high floor).
	cfg := Config{Range: 100}
	positions := make([]geom.Point, 8)
	for i := range positions {
		positions[i] = geom.Pt(float64(i)*10, 0)
	}
	n := newTestNet(t, cfg, positions)
	n.sched.At(0, func() {
		for i := range n.radios {
			for k := 0; k < 5; k++ {
				n.radios[i].Send(&Frame{Dst: Broadcast, Bits: 8000})
			}
		}
	})
	n.sched.Run(30)
	st := n.medium.Stats()
	// Every radio should receive most frames from the other 7 (5×7=35).
	for i := range n.recv {
		if len(n.recv[i]) < 30 {
			t.Errorf("radio %d received %d/35 frames — too much loss under carrier sense", i, len(n.recv[i]))
		}
	}
	if st.Transmissions != 40 {
		t.Errorf("Transmissions = %d, want 40 (broadcasts never retry)", st.Transmissions)
	}
}

func TestContentionIncreasesLatency(t *testing.T) {
	// The paper's core mechanism: with more traffic, the same frame takes
	// longer to get through. Send 1 vs 100 background frames and compare
	// the probe frame's completion time.
	probeLatency := func(background int) des.Time {
		cfg := Config{Range: 100}
		n := newTestNet(t, cfg, []geom.Point{geom.Pt(0, 0), geom.Pt(50, 0), geom.Pt(50, 50)})
		var doneAt des.Time = -1
		probe := &Frame{Dst: 1, Bits: 8000}
		n.sched.At(0, func() {
			for i := 0; i < background; i++ {
				n.radios[2].Send(&Frame{Dst: Broadcast, Bits: 8000})
			}
		})
		n.sched.At(1e-6, func() { n.radios[0].Send(probe) })
		n.medium.radios[0].onSent = func(f *Frame, ok bool) {
			if f == probe && ok {
				doneAt = n.sched.Now()
			}
		}
		n.sched.Run(60)
		if doneAt < 0 {
			t.Fatalf("probe never completed with %d background frames", background)
		}
		return doneAt
	}
	quiet := probeLatency(1)
	busy := probeLatency(100)
	if busy <= quiet*2 {
		t.Errorf("contention should slow the probe: quiet=%v busy=%v", quiet, busy)
	}
}

// TestLongAiringKeepsEarlyInterferer pins the retention bound: a 3 s
// airing, hundreds of default airtimes long, raises how long the medium
// keeps ended airings, so it must still be corrupted by a short
// interferer that started (and ended) before most of it aired, even
// after an unrelated end event has pruned the FIFO while the long airing
// is still on the air.
func TestLongAiringKeepsEarlyInterferer(t *testing.T) {
	// Radios 0 and 2 are hidden from each other, radio 1 hears radio 0
	// and radio 2 corrupts what it hears (hiddenLine); radio 3 is out of
	// everyone's range.
	n := newTestNet(t, Config{Range: 100}, append(slices.Clone(hiddenLine), geom.Pt(5000, 0)))
	n.sched.At(0, func() { n.radios[2].Send(&Frame{Dst: Broadcast, Bits: 8000}) })
	// About 3 s on the air, overlapping radio 2's frame at its start.
	n.sched.At(0.001, func() { n.radios[0].Send(&Frame{Dst: Broadcast, Bits: 3e6}) })
	// Radio 3's end event prunes the FIFO before radio 0's frame ends.
	n.sched.At(2, func() { n.radios[3].Send(&Frame{Dst: Broadcast, Bits: 8000}) })
	n.sched.Run(5)
	if got := len(n.recv[1]); got != 0 {
		t.Errorf("radio 1 received %d frames; radio 2's early frame should corrupt the long one there", got)
	}
	if got := n.medium.Stats().Collisions; got != 1 {
		t.Errorf("Collisions = %d, want 1", got)
	}
}

// TestAiringAtEndTickDoesNotOverlap pins the overlap boundary the
// retention rule leans on: an airing that starts in exactly the tick
// another ends does not overlap it. It resolves the same way whether
// the earlier airing is still retained when the later one ends (the
// production rule keeps it for one airtime plus a slot) or was pruned
// in that very tick (a retention of exactly one airtime).
func TestAiringAtEndTickDoesNotOverlap(t *testing.T) {
	air := float64(headerBits+8000) / bitRate
	for _, tc := range []struct {
		name   string
		retain float64 // overrides Medium.retain once both airings started; 0 keeps the rule
		held   int     // airings retained when the second one resolves
	}{
		{"retained", 0, 2},
		{"pruned", air, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Radios 0 and 2 are hidden from each other; radio 1
			// hears radio 0 and radio 3 hears radio 2, each 95 m from
			// its sender and 160 m from the other, so any overlap
			// would corrupt both frames (hiddenLine, both ways).
			n := newTestNet(t, Config{Range: 100}, append(slices.Clone(hiddenLine), geom.Pt(160, 0)))
			var got []string
			var held []int
			for _, rx := range []int{1, 3} {
				n.medium.radios[rx].onRecv = func(f *Frame) {
					got = append(got, f.Payload.(string))
					held = append(held, n.medium.retained())
				}
			}
			n.sched.At(0, func() { n.radios[2].Send(&Frame{Dst: Broadcast, Bits: 8000, Payload: "first"}) })
			// Scheduled before the first airing's end event, so the
			// second airing is on the air when the first resolves.
			n.sched.At(air, func() {
				n.radios[0].Send(&Frame{Dst: Broadcast, Bits: 8000, Payload: "second"})
				if tc.retain > 0 {
					n.medium.retain = tc.retain
				}
			})
			n.sched.Run(1)
			if !slices.Equal(got, []string{"first", "second"}) {
				t.Fatalf("radios 3 and 1 received %v, want [first second]", got)
			}
			if c := n.medium.Stats().Collisions; c != 0 {
				t.Errorf("Collisions = %d, want 0", c)
			}
			if want := []int{2, tc.held}; !slices.Equal(held, want) {
				t.Errorf("retained airings at the two receptions = %v, want %v", held, want)
			}
		})
	}
}

// TestRetainedAirStaysWithinAirtimes pins the retention rule by count:
// under steady load (an 8000-bit broadcast every 200 µs on 1000 radios
// at the paper's density, about 42 sends per airtime) the FIFO holds
// only the airings started in the last few airtimes, not a fixed
// stretch of the channel's history.
func TestRetainedAirStaysWithinAirtimes(t *testing.T) {
	const (
		n     = 1000
		every = 200e-6 // simulated seconds between sends
		bits  = 8000
	)
	sched, m := paperDensityMedium(t, n)
	next := 0
	des.NewTicker(sched, every, 0, func() {
		m.radios[next].Send(&Frame{Dst: Broadcast, Bits: bits})
		next = (next + 7919) % n
	})
	most := 0
	des.NewTicker(sched, 0.01, 1, func() { most = max(most, m.retained()) })
	sched.Run(1.5)
	perAirtime := m.frameAirtime(&Frame{Bits: bits}) / every
	if limit := int(4 * perAirtime); most > limit {
		t.Errorf("FIFO held up to %d airings, want at most %d (four airtimes of sends)", most, limit)
	}
	if most < int(perAirtime/2) {
		t.Errorf("FIFO held at most %d airings; the load never reached steady state", most)
	}
	t.Logf("FIFO held at most %d airings (%.0f sends per airtime)", most, perAirtime)
}

// TestCoincidentEndsOneEventPerTick pins the end-tick index: airings that
// end in the same tick share one scheduler event, and their receptions
// and completions run in start order.
func TestCoincidentEndsOneEventPerTick(t *testing.T) {
	cfg := Config{Range: 100}
	// Senders 0..3 sit 1 km apart, hidden from one another; receiver
	// 4+i hears only sender i.
	var positions []geom.Point
	for _, dx := range []float64{0, 50} {
		for i := 0; i < 4; i++ {
			positions = append(positions, geom.Pt(float64(i)*1000+dx, 0))
		}
	}
	n := newTestNet(t, cfg, positions)
	var recvOrder, sentOrder []int
	for i := 0; i < 4; i++ {
		n.radios[4+i].onRecv = func(*Frame) { recvOrder = append(recvOrder, i) }
		n.radios[i].onSent = func(*Frame, bool) { sentOrder = append(sentOrder, i) }
	}
	// All four start in tick 0, in the order 2, 0, 3, 1. Sender 3's
	// shorter frame ends first; the other three end together.
	bits := []int{8000, 8000, 8000, 4000}
	for _, i := range []int{2, 0, 3, 1} {
		n.sched.At(0, func() { n.radios[i].Send(&Frame{Dst: Broadcast, Bits: bits[i]}) })
	}
	n.sched.Run(1)
	// Four send events plus one end event for each of the two end ticks.
	if got := n.sched.Processed(); got != 4+2 {
		t.Errorf("scheduler ran %d events, want 6 (4 sends, 2 end ticks)", got)
	}
	want := []int{3, 2, 0, 1}
	if !slices.Equal(recvOrder, want) {
		t.Errorf("receptions from senders %v, want %v", recvOrder, want)
	}
	if !slices.Equal(sentOrder, want) {
		t.Errorf("completions of senders %v, want %v", sentOrder, want)
	}
}

// TestDriftedRadioReceivedAtRange: the radio index returns exactly the
// radios indexed within Range+IndexSlack of the sender, with no cell
// rounding beyond that disk, so the slack alone must cover how far a
// radio moved since its position was last indexed. A receiver that
// approaches at top speed for a whole reindex interval, from about
// Range + speed·interval at the last reindex to exactly Range when the
// frame ends, is received under the simulator's slack (speed ×
// interval + 1 m), as the all-pairs medium receives it, and missed under
// a slack that covers only rounding.
func TestDriftedRadioReceivedAtRange(t *testing.T) {
	const (
		speed    = 20.0
		interval = 1.0
	)
	received := func(newMedium mediumFunc, slack float64) bool {
		cfg := Config{Range: 100}
		cfg.IndexSlack = slack
		airtime := (headerBits + 800) / bitRate
		start := interval - airtime - 1e-6
		end := start + airtime
		sched := des.NewScheduler()
		pos := func(id int) geom.Point {
			if id == 0 {
				return geom.Pt(0, 0)
			}
			return geom.Pt(cfg.Range+speed*(end-sched.Now()), 0)
		}
		m, err := newMedium(sched, cfg, 1, 2*cfg.Range, 0, 2, pos)
		if err != nil {
			t.Fatal(err)
		}
		got := false
		sender, err := m.AddRadio(0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.AddRadio(1, func(*Frame) {
			got = true
			if d := pos(0).Dist(pos(1)); d != cfg.Range {
				t.Errorf("received at distance %v, want exactly Range %v", d, cfg.Range)
			}
		}, nil); err != nil {
			t.Fatal(err)
		}
		if d := pos(1).X; d <= cfg.Range+speed*interval-0.01 {
			t.Fatalf("receiver indexed at %v m, want about Range + %v m of drift", d, speed*interval)
		}
		des.NewTicker(sched, interval, 0, m.Reindex)
		sched.At(start, func() { sender.Send(&Frame{Dst: Broadcast, Bits: 800}) })
		sched.Run(interval)
		return got
	}
	if !received(newNaiveMedium, 0) {
		t.Fatal("the all-pairs medium missed a receiver at exactly Range")
	}
	if !received(NewMedium, speed*interval+1) {
		t.Error("a receiver that drifted speed × interval since the last reindex was missed at Range")
	}
	if received(NewMedium, 1) {
		t.Error("a receiver indexed about 20 m beyond Range+IndexSlack was received; the index query is not the exact disk")
	}
}

// TestInterfererAtFullReachCorrupts: the interferer gather queries the
// transmission index, which filters to the exact disk, at the
// interference reach around the sender. An interferer matters while it
// is within ir = 2·Range of the receiver and, by the capture ratio of
// 10, closer than 10^¼ ≈ 1.778 times the receiver's distance from the
// sender; so with a receiver at Range from the sender and an interferer
// beyond it, all on one line, 10^¼·Range beyond the receiver is the
// farthest an interferer can sit and still matter, and the reach is
// Range plus that. Just inside (a relative 1e-7), the interferer's
// simultaneous airing, longer so that the sender's airing ends alone
// and only the query around the sender can find it, must corrupt the
// reception; just outside, the wanted frame is captured. The
// interferer is too far from the sender to sense it and defer.
func TestInterfererAtFullReachCorrupts(t *testing.T) {
	cfg := Config{Range: 100}
	far := cfg.Range * math.Sqrt(math.Sqrt(captureRatio))
	for _, tc := range []struct {
		scale     float64
		corrupted bool
	}{{1 - 1e-7, true}, {1 + 1e-7, false}} {
		at := cfg.Range + far*tc.scale
		n := newTestNet(t, cfg, []geom.Point{geom.Pt(0, 0), geom.Pt(cfg.Range, 0), geom.Pt(at, 0)})
		if inside := at < n.medium.interferenceReach(); inside != tc.corrupted {
			t.Fatalf("interferer %v m from the sender: inside the interference reach %v, want %v", at, inside, tc.corrupted)
		}
		n.sched.At(0, func() {
			n.radios[0].Send(&Frame{Dst: Broadcast, Bits: 8000})
			n.radios[2].Send(&Frame{Dst: Broadcast, Bits: 16000})
		})
		n.sched.Run(math.Inf(1))
		var want uint64
		if tc.corrupted {
			want = 1
		}
		if got := uint64(len(n.recv[1])); got != 1-want || n.medium.Stats().Collisions != want {
			t.Errorf("interferer %v m from the sender: receiver got %d frames with %d collisions, corrupted should be %v",
				at, got, n.medium.Stats().Collisions, tc.corrupted)
		}
	}
}
