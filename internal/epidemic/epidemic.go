// Package epidemic implements the benchmark protocol the paper compares
// against (Vahdat & Becker, "Epidemic routing for partially connected ad
// hoc networks"): on contact, nodes exchange summary vectors describing
// the messages they hold, then transfer the set difference. Messages are
// never cleared ("one apparent drawback of this routing protocol lies in
// that the messages are never cleared"); with bounded buffers, the oldest
// messages drop FIFO when new ones arrive.
package epidemic

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"glr/internal/dtn"
	"glr/internal/sim"
)

// Config parameterises the epidemic baseline.
type Config struct {
	// ExchangeInterval is the anti-entropy refresh period for an ongoing
	// contact: a session always starts when a peer first comes into
	// range (the Vahdat–Becker trigger), and repeats at this interval
	// while the contact lasts so messages generated mid-contact still
	// spread.
	ExchangeInterval float64
	// SVEntryBits is the per-message-id size of a summary vector entry.
	SVEntryBits int
	// SVBaseBits is the fixed summary/request frame overhead.
	SVBaseBits int
	// DataHeaderBits is the per-message transfer overhead.
	DataHeaderBits int
	// MaxBatch bounds how many messages are requested from (and served
	// to) one peer per exchange round; larger diffs sync over multiple
	// rounds paced by RequestTimeout. It also sets the token-bucket
	// burst for DataSendRate.
	MaxBatch int
	// RequestTimeout suppresses re-requesting a message id that was
	// already requested (from any peer) within this window, and paces
	// the retry of requests whose transfers were lost. In dense
	// topologies many neighbors advertise the same message near-
	// simultaneously; requesting it from all of them multiplies data
	// traffic several-fold for no benefit.
	RequestTimeout float64
	// RequestRetries bounds how many times a lost transfer is re-
	// requested from its advertiser. Without retries a transfer lost to
	// a collision on a long-lived contact is never healed (delta
	// summaries will not re-advertise it); this is a small reliability
	// addition over the 2000-era protocol, documented in DESIGN.md.
	RequestRetries int
	// ContactGap is the silence (no beacons heard) after which a peer
	// counts as a NEW contact, triggering a full summary exchange. It
	// must tolerate several lost beacons: under load, beacon collisions
	// otherwise masquerade as contact churn and the resulting full
	// re-syncs feed the congestion that killed the beacons.
	ContactGap float64
	// DataSendRate is a per-node token-bucket budget on outgoing message
	// transfers (messages/second, burst MaxBatch). It calibrates the
	// pair-sync throughput to what the paper's stack (reliable IMEP
	// delivery over 802.11 at 1 Mbps) actually sustained — far below
	// raw link rate — and is the mechanism that reproduces epidemic's
	// load-dependent slowdown. 0 disables pacing.
	DataSendRate float64
	// BroadcastDeltas enables an ENHANCEMENT over Vahdat–Becker: fresh
	// insertions are advertised to all neighbors in a debounced
	// broadcast, instead of waiting for the next contact formation.
	// Faithful epidemic (the paper's baseline) exchanges summary vectors
	// only "when two nodes come into communication range of each other",
	// so this is off by default; it exists for ablation studies.
	BroadcastDeltas bool
	// ActiveReceipts implements the active-receipt extension the paper
	// discusses (§1, after Harras & Almeroth): when a destination
	// receives its message it generates a receipt that spreads like an
	// anti-packet, purging buffered copies and immunising nodes against
	// re-infection — addressing "the messages are never cleared". Off by
	// default (the paper's baseline does not clear).
	ActiveReceipts bool
}

// DefaultConfig returns a faithful, paper-scale parameterisation.
func DefaultConfig() Config {
	return Config{
		ExchangeInterval: 6.0,
		SVEntryBits:      6 * 8,
		SVBaseBits:       16 * 8,
		DataHeaderBits:   24 * 8,
		MaxBatch:         30,
		RequestTimeout:   3.0,
		RequestRetries:   10,
		ContactGap:       10.0,
		DataSendRate:     3.0,
	}
}

// Validate reports a descriptive error for unusable configurations.
func (c Config) Validate() error {
	switch {
	case c.ExchangeInterval <= 0:
		return fmt.Errorf("epidemic: exchange interval %v must be positive", c.ExchangeInterval)
	case c.SVEntryBits <= 0 || c.SVBaseBits <= 0 || c.DataHeaderBits < 0:
		return fmt.Errorf("epidemic: invalid frame sizes")
	case c.MaxBatch <= 0:
		return fmt.Errorf("epidemic: max batch %d must be positive", c.MaxBatch)
	case c.RequestTimeout < 0:
		return fmt.Errorf("epidemic: request timeout %v must be nonnegative", c.RequestTimeout)
	case c.RequestRetries < 0:
		return fmt.Errorf("epidemic: request retries %d must be nonnegative", c.RequestRetries)
	case c.ContactGap <= 0:
		return fmt.Errorf("epidemic: contact gap %v must be positive", c.ContactGap)
	case c.DataSendRate < 0:
		return fmt.Errorf("epidemic: data send rate %v must be nonnegative", c.DataSendRate)
	}
	return nil
}

// svFrame advertises buffer contents. A session-opening unicast and its
// reply carry the full summary vector; broadcast refreshes to ongoing
// contacts carry only the delta — ids inserted since the last broadcast —
// a standard anti-entropy optimisation (Bayou-style) without which
// steady-state summary traffic alone saturates dense topologies.
type svFrame struct {
	Summary dtn.SummaryVector
	// Reply marks the responder's summary in a session (the initiator
	// answers with requests only, avoiding infinite sv ping-pong).
	Reply bool
}

// reqFrame asks the peer to transfer the listed messages.
type reqFrame struct {
	Wanted []dtn.MessageID
}

// dataFrame transfers one buffered message.
type dataFrame struct {
	Msg dtn.Message
}

// Epidemic is one node's protocol instance.
type Epidemic struct {
	cfg Config
	n   *sim.Node

	buf           *dtn.Buffer
	lastExchange  map[int]float64
	lastHeard     map[int]float64 // contact tracking: detects NEW contacts
	wants         map[dtn.MessageID]*want
	backlog       map[int]bool // peer advertised more than one batch's worth
	deliveredHere map[dtn.MessageID]bool

	lastBcastVer uint64 // buffer version at the last broadcast delta
	bcastArmed   bool   // a debounced broadcast is scheduled

	// immune records message ids for which a receipt was seen (active
	// receipts extension): copies are purged and never re-accepted.
	immune map[dtn.MessageID]bool

	// Token bucket pacing outgoing data transfers.
	tokens     float64
	lastRefill float64
}

// receiptFrame is the active-receipt anti-packet: it names delivered
// messages so holders can purge them.
type receiptFrame struct {
	Delivered []dtn.MessageID
}

// want tracks an outstanding transfer request for retry.
type want struct {
	peer  int
	at    float64
	tries int
}

// New builds an epidemic factory for sim.NewWorld. The per-node buffer
// capacity comes from the scenario's StorageLimit.
func New(cfg Config) (sim.ProtocolFactory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return func(n *sim.Node) sim.Protocol {
		return &Epidemic{
			cfg:           cfg,
			n:             n,
			buf:           dtn.NewBuffer(n.StorageLimit()),
			lastExchange:  make(map[int]float64),
			lastHeard:     make(map[int]float64),
			wants:         make(map[dtn.MessageID]*want),
			backlog:       make(map[int]bool),
			immune:        make(map[dtn.MessageID]bool),
			deliveredHere: make(map[dtn.MessageID]bool),
		}
	}, nil
}

// Init implements sim.Protocol: start the slow retry sweep for lost
// transfers.
func (e *Epidemic) Init(n *sim.Node) {
	interval := e.cfg.RequestTimeout
	phase := n.Rand().Float64() * interval
	n.After(phase, func() { e.retrySweep(interval) })
}

// Restart implements sim.Restarter (fault-injected node churn): the
// node reboots with an empty buffer and no exchange state — contact
// history, advertised versions, outstanding wants, receipt immunity,
// and the delivered-here memory all reset, so previously seen copies
// can be accepted (and delivered) again as duplicates. The debounce
// flag is left alone: a pending delta broadcast fires on empty state,
// which is harmless, and clears it. The token bucket restarts empty.
func (e *Epidemic) Restart() {
	e.buf = dtn.NewBuffer(e.n.StorageLimit())
	clear(e.lastExchange)
	clear(e.lastHeard)
	clear(e.wants)
	clear(e.backlog)
	clear(e.immune)
	clear(e.deliveredHere)
	e.lastBcastVer = e.buf.Version()
	e.tokens = 0
	e.lastRefill = e.n.Now()
}

// retrySweep re-requests transfers that timed out, in one batch per
// advertiser, then reschedules itself.
//
// Both sweeps iterate in sorted order, never raw map order: which ids
// land in a MaxBatch-bounded batch and the order request frames hit the
// medium must not depend on map iteration, or identical seeded runs
// stop being byte-identical (the determinism the result cache and the
// committed atlas rely on).
func (e *Epidemic) retrySweep(interval float64) {
	now := e.n.Now()
	ids := make([]dtn.MessageID, 0, len(e.wants))
	for id := range e.wants {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, dtn.MessageID.Compare)
	perPeer := make(map[int][]dtn.MessageID)
	var peers []int
	for _, id := range ids {
		w := e.wants[id]
		if e.buf.Has(id) {
			delete(e.wants, id)
			continue
		}
		if now-w.at < e.cfg.RequestTimeout {
			continue
		}
		if w.tries >= e.cfg.RequestRetries {
			delete(e.wants, id)
			continue
		}
		// Only retry toward peers we can still hear, pacing each batch.
		if heard, ok := e.lastHeard[w.peer]; !ok || now-heard > e.cfg.ContactGap {
			delete(e.wants, id)
			continue
		}
		if len(perPeer[w.peer]) >= e.cfg.MaxBatch {
			continue
		}
		w.at = now
		w.tries++
		if len(perPeer[w.peer]) == 0 {
			peers = append(peers, w.peer)
		}
		perPeer[w.peer] = append(perPeer[w.peer], id)
	}
	sort.Ints(peers)
	for _, peer := range peers {
		// Per-peer batches inherit the sorted (Src, Seq) sweep order.
		batch := perPeer[peer]
		e.n.Unicast(peer, sim.KindControl, reqFrame{Wanted: batch}, e.svBits(len(batch)), nil)
	}
	e.drainBacklogs(now)
	e.n.After(interval, func() { e.retrySweep(interval) })
}

// drainBacklogs continues multi-batch syncs on long-lived contacts: when
// a peer advertised more messages than one batch could request and all
// current wants toward it are settled, re-open the session so the next
// batch flows. Rate-limited by ExchangeInterval.
func (e *Epidemic) drainBacklogs(now float64) {
	if len(e.backlog) == 0 {
		return
	}
	peers := make([]int, 0, len(e.backlog))
	for peer := range e.backlog {
		peers = append(peers, peer)
	}
	sort.Ints(peers)
	// Peers with a want still unsettled, including the batches the
	// retry sweep just sent.
	busy := make(map[int]bool)
	for _, w := range e.wants {
		busy[w.peer] = true
	}
	for _, peer := range peers {
		if heard, ok := e.lastHeard[peer]; !ok || now-heard > e.cfg.ContactGap {
			delete(e.backlog, peer) // contact gone; a new contact restarts
			continue
		}
		if busy[peer] {
			continue
		}
		if last, ok := e.lastExchange[peer]; ok && now-last < e.cfg.ExchangeInterval {
			continue
		}
		delete(e.backlog, peer)
		e.lastExchange[peer] = now
		e.sendSummary(peer, false)
	}
}

// StorageUsed implements sim.Protocol.
func (e *Epidemic) StorageUsed() int { return e.buf.Len() }

// Buffer exposes the message buffer (tests and examples).
func (e *Epidemic) Buffer() *dtn.Buffer { return e.buf }

// OnMessageGenerated implements sim.Protocol: epidemic sources simply
// buffer the message and let anti-entropy spread it.
func (e *Epidemic) OnMessageGenerated(m *dtn.Message) {
	e.buf.Add(m)
	e.armBroadcast()
}

// armBroadcast schedules a debounced broadcast delta advertisement: at
// most roughly one per second per node, carrying every id inserted since
// the previous broadcast. One broadcast reaches every neighbor — the way
// IMEP aggregates control traffic — where per-peer delta unicasts alone
// would saturate dense topologies (each insertion re-advertised to ~49
// peers individually).
func (e *Epidemic) armBroadcast() {
	if !e.cfg.BroadcastDeltas || e.bcastArmed {
		return
	}
	e.bcastArmed = true
	delay := 0.5 + e.n.Rand().Float64()*0.5
	e.n.After(delay, e.broadcastDelta)
}

func (e *Epidemic) broadcastDelta() {
	e.bcastArmed = false
	sv := e.buf.SummarySince(e.lastBcastVer)
	e.lastBcastVer = e.buf.Version()
	if len(sv) == 0 {
		return
	}
	e.n.Broadcast(sim.KindControl, svFrame{Summary: sv, Reply: true}, e.svBits(len(sv)))
}

// OnBeacon implements sim.Protocol: a beacon from a peer not heard
// recently marks a NEW contact, which opens a full pairwise anti-entropy
// session (the Vahdat–Becker trigger). Fresh insertions reach ongoing
// contacts through the broadcast delta advertisements instead.
func (e *Epidemic) OnBeacon(b sim.Beacon) {
	now := e.n.Now()
	heardAt, known := e.lastHeard[b.From]
	e.lastHeard[b.From] = now
	if known && now-heardAt <= e.cfg.ContactGap {
		return
	}
	if last, ok := e.lastExchange[b.From]; ok && now-last < e.cfg.ExchangeInterval {
		return
	}
	e.lastExchange[b.From] = now
	e.sendSummary(b.From, false)
}

// svBits sizes a delta summary or request frame: an explicit id list.
func (e *Epidemic) svBits(entries int) int {
	return e.cfg.SVBaseBits + entries*e.cfg.SVEntryBits
}

// svBitsFull sizes a full summary vector. Full vectors are bitmaps over
// the message-id space (~1 bit per message, the canonical compact
// representation), not explicit id lists — at 1980 messages an explicit
// list would be a 95 ms frame and contact formations alone would saturate
// the channel.
func (e *Epidemic) svBitsFull(entries int) int {
	return e.cfg.SVBaseBits + entries
}

// sendSummary unicasts the full summary vector to a peer: a session
// opener, or (reply) the responder's half of the handshake.
func (e *Epidemic) sendSummary(to int, reply bool) {
	sv := e.buf.Summary()
	e.n.Unicast(to, sim.KindControl, svFrame{Summary: sv, Reply: reply}, e.svBitsFull(len(sv)), nil)
}

// OnFrame implements sim.Protocol.
func (e *Epidemic) OnFrame(payload any, from int) {
	switch f := payload.(type) {
	case svFrame:
		e.onSummary(f, from)
	case reqFrame:
		e.onRequest(f, from)
	case dataFrame:
		e.onData(f, from)
	case receiptFrame:
		e.onReceipt(f)
	}
}

// onReceipt purges delivered messages and spreads the anti-packet onward
// (rebroadcast once per newly-learned id set).
func (e *Epidemic) onReceipt(f receiptFrame) {
	if !e.cfg.ActiveReceipts {
		return
	}
	var fresh []dtn.MessageID
	for _, id := range f.Delivered {
		if e.immune[id] {
			continue
		}
		e.immune[id] = true
		e.buf.Remove(id)
		delete(e.wants, id)
		fresh = append(fresh, id)
	}
	if len(fresh) > 0 {
		e.n.Broadcast(sim.KindControl, receiptFrame{Delivered: fresh}, e.svBits(len(fresh)))
	}
}

// onSummary computes the set difference and requests what we lack; if this
// summary opened a session, we reply with our own so the exchange is
// bidirectional (the Vahdat–Becker handshake).
//
// The ids we lack are visited in the summary's canonical (Src, Seq)
// order, so request frames hit the medium in the same order on every run.
func (e *Epidemic) onSummary(f svFrame, from int) {
	now := e.n.Now()
	var diffStart time.Time
	if e.n.PhaseProfiled() {
		diffStart = time.Now()
	}
	var missing []dtn.MessageID
	for id := range e.buf.Lacks(f.Summary) {
		// Skip ids already requested recently from any peer, and ids
		// purged by active receipts.
		if w, ok := e.wants[id]; ok && now-w.at < e.cfg.RequestTimeout {
			continue
		}
		if e.cfg.ActiveReceipts && e.immune[id] {
			continue
		}
		if len(missing) == e.cfg.MaxBatch {
			e.backlog[from] = true // more to pull once this batch settles
			break
		}
		missing = append(missing, id)
	}
	if !diffStart.IsZero() {
		e.n.AddAntiEntropyTime(time.Since(diffStart))
	}
	if len(missing) > 0 {
		for _, id := range missing {
			e.wants[id] = &want{peer: from, at: now}
		}
		e.n.Unicast(from, sim.KindControl, reqFrame{Wanted: missing}, e.svBits(len(missing)), nil)
	}
	if !f.Reply {
		e.lastExchange[from] = e.n.Now()
		e.lastHeard[from] = e.n.Now()
		e.sendSummary(from, true)
	}
}

// onRequest streams the requested messages to the peer, subject to the
// node's data-rate budget. Requests that exceed the budget go unserved;
// the requester's retry sweep re-asks a few seconds later, so a long sync
// is paced over the contact — or cut short when the contact breaks, which
// is exactly the bandwidth-bound behaviour behind the paper's epidemic
// slowdown at high message counts.
func (e *Epidemic) onRequest(f reqFrame, from int) {
	e.refillTokens()
	sent := 0
	for _, id := range f.Wanted {
		m := e.buf.Get(id)
		if m == nil {
			continue // dropped since we advertised it
		}
		if sent >= e.cfg.MaxBatch {
			break
		}
		if e.cfg.DataSendRate > 0 {
			if e.tokens < 1 {
				break
			}
			e.tokens--
		}
		sent++
		e.n.Unicast(from, sim.KindData, dataFrame{Msg: *m},
			m.PayloadBits+e.cfg.DataHeaderBits, nil)
	}
}

// refillTokens tops up the data-rate bucket.
func (e *Epidemic) refillTokens() {
	if e.cfg.DataSendRate <= 0 {
		return
	}
	now := e.n.Now()
	e.tokens += (now - e.lastRefill) * e.cfg.DataSendRate
	e.lastRefill = now
	if burst := float64(e.cfg.MaxBatch); e.tokens > burst {
		e.tokens = burst
	}
}

// onData buffers an incoming message and records delivery when we are the
// destination. Delivered messages stay buffered — epidemic routing has no
// acknowledgment machinery, so the destination keeps (and re-advertises)
// the message like any relay.
func (e *Epidemic) onData(f dataFrame, from int) {
	m := f.Msg
	m.Hops++
	delete(e.wants, m.ID)
	if e.cfg.ActiveReceipts && e.immune[m.ID] {
		return // already purged network-wide; do not re-buffer
	}
	if m.Dst == e.n.ID() && !e.deliveredHere[m.ID] {
		e.deliveredHere[m.ID] = true
		e.n.ReportDelivered(&m)
		if e.cfg.ActiveReceipts {
			// Generate the anti-packet; we keep our own copy immune so
			// later copies bounce off.
			e.immune[m.ID] = true
			e.n.Broadcast(sim.KindControl, receiptFrame{Delivered: []dtn.MessageID{m.ID}},
				e.svBits(1))
			return
		}
	}
	e.buf.Add(&m)
	e.armBroadcast()
}
