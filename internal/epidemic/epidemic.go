// Package epidemic implements the benchmark protocol the paper compares
// against (Vahdat & Becker, "Epidemic routing for partially connected ad
// hoc networks"): on contact, nodes exchange summary vectors describing
// the messages they hold, then transfer the set difference. Messages are
// never cleared ("one apparent drawback of this routing protocol lies in
// that the messages are never cleared"); with bounded buffers, the oldest
// messages drop FIFO when new ones arrive.
package epidemic

import (
	"slices"
	"time"

	"glr/internal/dtn"
	"glr/internal/freelist"
	"glr/internal/sim"
)

// Config is empty: the baseline has no knobs, and every setting is one
// of the constants below. It stays, with New's always-nil error, only
// because the benchmark module calls New(DefaultConfig()).
type Config struct{}

// Fixed protocol settings: the paper's evaluation never varies them.
const (
	// exchangeInterval is the minimum time, per peer, from a session
	// (opened or answered) to the next session this node opens with that
	// peer. A session opens when a peer comes into range after no beacon
	// from it for contactGap (the Vahdat–Becker trigger); an ongoing
	// contact opens none, so this only rate-limits re-contacts and the
	// backlog drain (drainBacklogs).
	exchangeInterval = 6.0
	// dataSendRate is a per-node token-bucket budget on outgoing message
	// transfers (messages/second, burst maxBatch). It calibrates the
	// pair-sync throughput to what the paper's stack (reliable IMEP
	// delivery over 802.11 at 1 Mbps) actually sustained — far below
	// raw link rate — and is the mechanism that reproduces epidemic's
	// load-dependent slowdown.
	dataSendRate = 3.0
	// svEntryBits is the per-message-id size of a summary vector entry.
	svEntryBits = 6 * 8
	// svBaseBits is the fixed summary/request frame overhead.
	svBaseBits = 16 * 8
	// dataHeaderBits is the per-message transfer overhead.
	dataHeaderBits = 24 * 8
	// maxBatch bounds how many messages are requested from (and served
	// to) one peer per exchange round; larger diffs sync over multiple
	// rounds paced by requestTimeout. It also sets the token-bucket
	// burst for dataSendRate.
	maxBatch = 30
	// requestTimeout suppresses re-requesting a message id that was
	// already requested (from any peer) within this window, and paces
	// the retry of requests whose transfers were lost. In dense
	// topologies many neighbors advertise the same message near-
	// simultaneously; requesting it from all of them multiplies data
	// traffic several-fold for no benefit.
	requestTimeout = 3.0
	// requestRetries bounds how many times a lost transfer is re-
	// requested from its advertiser. Without retries a transfer lost to
	// a collision on a long-lived contact is never healed (an ongoing
	// contact opens no new session to re-advertise it); this is a small
	// reliability addition over the 2000-era protocol.
	requestRetries = 10
	// contactGap is the silence (no beacons heard) after which a peer
	// counts as a NEW contact, triggering a full summary exchange. It
	// must tolerate several lost beacons: under load, beacon collisions
	// otherwise masquerade as contact churn and the resulting full
	// re-syncs feed the congestion that killed the beacons.
	contactGap = 10.0
)

// DefaultConfig returns the empty Config.
func DefaultConfig() Config { return Config{} }

// The three frame types travel as pointers into the sending node's free
// lists (boxes). OnSent puts each box back when the MAC resolves the
// unicast: sim.Node reports a frame sent only after every reception of
// it has been delivered, so no receiver reads a box after its release.
// Receivers copy out what they keep.

// svFrame advertises buffer contents: the full summary vector (a bitmap
// over the world's message ranks), unicast by the node opening a session
// and by the responder in reply.
type svFrame struct {
	// Summary is the sender's shared, immutable snapshot
	// (RankSet.Summary); a released box only drops its reference.
	Summary dtn.SummaryVector
	// Reply marks the responder's summary in a session (the initiator
	// answers with requests only, avoiding infinite sv ping-pong).
	Reply bool
}

// reqFrame asks the peer to transfer the listed messages. The box owns
// Wanted's backing array, which it keeps across reuses.
type reqFrame struct {
	Wanted []dtn.MessageID
}

// dataFrame transfers one buffered message, copied by value: the
// sender's buffer keeps its own copy.
type dataFrame struct {
	Msg dtn.Message
}

// Epidemic is one node's protocol instance.
type Epidemic struct {
	n *sim.Node

	buf           *dtn.Buffer
	have          dtn.RankSet // the ranks of buf's messages, kept in step with it
	lastExchange  map[int]float64
	lastHeard     map[int]float64 // contact tracking: detects NEW contacts
	wants         map[dtn.MessageID]want
	backlog       map[int]bool // peer advertised more than one batch's worth
	deliveredHere dtn.RankSet  // the ranks of messages delivered to this node

	// Token bucket pacing outgoing data transfers.
	tokens     float64
	lastRefill float64

	boxes boxes
	sweep func() // retrySweep, bound once in Init

	// Scratch of retrySweep and drainBacklogs, cleared on every call.
	// perPeer maps each advertiser to the pooled request box its batch
	// collects in; the box rides to the peer and returns in OnSent.
	sweepIDs   []dtn.MessageID
	sweepPeers []int
	perPeer    map[int]*reqFrame
	busy       map[int]bool
}

// want tracks an outstanding transfer request for retry.
type want struct {
	peer  int
	at    float64
	tries int
}

// boxes are one node's free lists for the frames anti-entropy churns:
// summary, request and data frames, each back in OnSent. They are per
// node, where core's boxPool is per world: every box is taken and
// released by the node that owns it, so concurrent worlds share nothing.
// The buffer keeps its own copies of the messages it stores.
type boxes struct {
	svs  freelist.List[svFrame]
	reqs freelist.List[reqFrame]
	data freelist.List[dataFrame]
}

// New builds an epidemic factory for sim.NewWorld. The per-node buffer
// capacity comes from the scenario's StorageLimit. The error is always
// nil.
func New(Config) (sim.ProtocolFactory, error) {
	return func(n *sim.Node) sim.Protocol {
		return &Epidemic{
			n:            n,
			buf:          dtn.NewBuffer(n.StorageLimit()),
			lastExchange: make(map[int]float64),
			lastHeard:    make(map[int]float64),
			wants:        make(map[dtn.MessageID]want),
			backlog:      make(map[int]bool),
		}
	}, nil
}

// Init implements sim.Protocol: start the slow retry sweep for lost
// transfers.
func (e *Epidemic) Init(n *sim.Node) {
	e.sweep = e.retrySweep
	n.After(n.Rand().Float64()*requestTimeout, e.sweep)
}

// Restart implements sim.Restarter (fault-injected node churn): the
// node reboots with an empty buffer and no exchange state — contact
// history, outstanding wants, pending backlogs and the delivered-here
// memory all reset, so previously seen copies can be accepted (and
// delivered) again as duplicates. The buffer empties in place; frames
// already handed to the MAC still return on their own. The token bucket
// restarts empty.
func (e *Epidemic) Restart() {
	e.buf.Drain()
	e.have.Clear()
	e.deliveredHere.Clear()
	clear(e.lastExchange)
	clear(e.lastHeard)
	clear(e.wants)
	clear(e.backlog)
	e.tokens = 0
	e.lastRefill = e.n.Now()
}

// retrySweep re-requests transfers that timed out, in one batch per
// advertiser, then reschedules itself every requestTimeout.
//
// Both sweeps iterate in sorted order, never raw map order: which ids
// land in a maxBatch-bounded batch and the order request frames hit the
// medium must not depend on map iteration, or identical seeded runs
// stop being byte-identical (the determinism the result cache and the
// committed atlas rely on).
func (e *Epidemic) retrySweep() {
	now := e.n.Now()
	ids := e.sweepIDs[:0]
	for id := range e.wants {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, dtn.MessageID.Compare)
	e.sweepIDs = ids
	if e.perPeer == nil {
		e.perPeer = make(map[int]*reqFrame)
	}
	perPeer := e.perPeer
	peers := e.sweepPeers[:0]
	for _, id := range ids {
		w := e.wants[id]
		if e.buf.Has(id) {
			delete(e.wants, id)
			continue
		}
		if now-w.at < requestTimeout {
			continue
		}
		if w.tries >= requestRetries {
			delete(e.wants, id)
			continue
		}
		// Only retry toward peers we can still hear, pacing each batch.
		if heard, ok := e.lastHeard[w.peer]; !ok || now-heard > contactGap {
			delete(e.wants, id)
			continue
		}
		batch := perPeer[w.peer]
		if batch != nil && len(batch.Wanted) >= maxBatch {
			continue
		}
		w.at = now
		w.tries++
		e.wants[id] = w
		if batch == nil {
			batch = e.boxes.reqs.Take()
			perPeer[w.peer] = batch
			peers = append(peers, w.peer)
		}
		batch.Wanted = append(batch.Wanted, id)
	}
	slices.Sort(peers)
	e.sweepPeers = peers
	for _, peer := range peers {
		// Per-peer batches inherit the sorted (Src, Seq) sweep order.
		batch := perPeer[peer]
		e.n.Unicast(peer, sim.KindControl, batch, e.svBits(len(batch.Wanted)))
	}
	clear(perPeer)
	e.drainBacklogs(now)
	e.n.After(requestTimeout, e.sweep)
}

// drainBacklogs continues multi-batch syncs on long-lived contacts: when
// a peer advertised more messages than one batch could request and all
// current wants toward it are settled, re-open the session so the next
// batch flows. Rate-limited by exchangeInterval.
func (e *Epidemic) drainBacklogs(now float64) {
	if len(e.backlog) == 0 {
		return
	}
	// retrySweep is done with sweepPeers when it calls here.
	peers := e.sweepPeers[:0]
	for peer := range e.backlog {
		peers = append(peers, peer)
	}
	slices.Sort(peers)
	e.sweepPeers = peers
	// Peers with a want still unsettled, including the batches the
	// retry sweep just sent.
	if e.busy == nil {
		e.busy = make(map[int]bool)
	}
	busy := e.busy
	clear(busy)
	for _, w := range e.wants {
		busy[w.peer] = true
	}
	for _, peer := range peers {
		if heard, ok := e.lastHeard[peer]; !ok || now-heard > contactGap {
			delete(e.backlog, peer) // contact gone; a new contact restarts
			continue
		}
		if busy[peer] {
			continue
		}
		if last, ok := e.lastExchange[peer]; ok && now-last < exchangeInterval {
			continue
		}
		delete(e.backlog, peer)
		e.lastExchange[peer] = now
		e.sendSummary(peer, false)
	}
}

// StorageUsed implements sim.Protocol.
func (e *Epidemic) StorageUsed() int { return e.buf.Len() }

// OnMessageGenerated implements sim.Protocol: epidemic sources simply
// buffer the message (the buffer copies it in) and let anti-entropy
// spread it.
func (e *Epidemic) OnMessageGenerated(m *dtn.Message) {
	e.store(m)
}

// store buffers a copy of m and keeps have in step with the buffer:
// m's rank joins it and the rank of the message the buffer evicts for m
// leaves.
func (e *Epidemic) store(m *dtn.Message) {
	ranks := e.n.MessageRanks()
	if evicted, ok := e.buf.Add(m); ok {
		e.have.Remove(ranks.Rank(evicted))
	}
	e.have.Add(ranks.Rank(m.ID))
}

// OnBeacon implements sim.Protocol: a beacon from a peer not heard for
// contactGap marks a NEW contact, which opens a full pairwise
// anti-entropy session (the Vahdat–Becker trigger) unless a session with
// that peer opened within exchangeInterval. Beacons from an ongoing
// contact only refresh lastHeard: messages that arrive mid-contact wait
// for the next contact, or for drainBacklogs when the last session left
// a backlog.
func (e *Epidemic) OnBeacon(b sim.Beacon) {
	now := e.n.Now()
	heardAt, known := e.lastHeard[b.From]
	e.lastHeard[b.From] = now
	if known && now-heardAt <= contactGap {
		return
	}
	if last, ok := e.lastExchange[b.From]; ok && now-last < exchangeInterval {
		return
	}
	e.lastExchange[b.From] = now
	e.sendSummary(b.From, false)
}

// svBits sizes a request frame: an explicit id list.
func (e *Epidemic) svBits(entries int) int {
	return svBaseBits + entries*svEntryBits
}

// svBitsFull sizes a full summary vector on the air at one bit per held
// message. Full vectors are bitmaps over the world's message ranks
// (dtn.SummaryVector), not explicit id lists — at 1980 messages an
// explicit list would be a 95 ms frame and contact formations alone
// would saturate the channel.
func (e *Epidemic) svBitsFull(entries int) int {
	return svBaseBits + entries
}

// sendSummary unicasts the full summary vector to a peer: a session
// opener, or (reply) the responder's half of the handshake.
func (e *Epidemic) sendSummary(to int, reply bool) {
	f := e.boxes.svs.Take()
	f.Summary, f.Reply = e.have.Summary(), reply
	e.n.Unicast(to, sim.KindControl, f, e.svBitsFull(f.Summary.Len()))
}

// OnFrame implements sim.Protocol.
func (e *Epidemic) OnFrame(payload any, from int) {
	switch f := payload.(type) {
	case *svFrame:
		e.onSummary(f, from)
	case *reqFrame:
		e.onRequest(f, from)
	case *dataFrame:
		e.onData(f, from)
	}
}

// OnSent implements sim.Protocol: every frame box goes back to its free
// list once the MAC resolves the unicast, whatever its outcome (a lost
// transfer is re-requested by the retry sweep).
func (e *Epidemic) OnSent(payload any, _ bool) {
	switch f := payload.(type) {
	case *svFrame:
		f.Summary = dtn.SummaryVector{}
		e.boxes.svs.Put(f)
	case *reqFrame:
		f.Wanted = f.Wanted[:0]
		e.boxes.reqs.Put(f)
	case *dataFrame:
		e.boxes.data.Put(f)
	}
}

// onSummary computes the set difference and requests what we lack; if this
// summary opened a session, we reply with our own so the exchange is
// bidirectional (the Vahdat–Becker handshake).
//
// The ids we lack are visited in ascending rank, which is the canonical
// (Src, Seq) order, so request frames hit the medium in the same order
// on every run.
func (e *Epidemic) onSummary(f *svFrame, from int) {
	now := e.n.Now()
	var diffStart time.Time
	if e.n.PhaseProfiled() {
		diffStart = time.Now()
	}
	ranks := e.n.MessageRanks()
	var req *reqFrame
	for r := range e.have.Lacks(f.Summary) {
		id := ranks.ID(r)
		// Skip ids already requested recently from any peer.
		if w, ok := e.wants[id]; ok && now-w.at < requestTimeout {
			continue
		}
		if req == nil {
			req = e.boxes.reqs.Take()
		} else if len(req.Wanted) == maxBatch {
			e.backlog[from] = true // more to pull once this batch settles
			break
		}
		req.Wanted = append(req.Wanted, id)
	}
	if !diffStart.IsZero() {
		e.n.AddAntiEntropyTime(time.Since(diffStart))
	}
	if req != nil {
		for _, id := range req.Wanted {
			e.wants[id] = want{peer: from, at: now}
		}
		e.n.Unicast(from, sim.KindControl, req, e.svBits(len(req.Wanted)))
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
func (e *Epidemic) onRequest(f *reqFrame, from int) {
	e.refillTokens()
	sent := 0
	for _, id := range f.Wanted {
		m := e.buf.Get(id)
		if m == nil {
			continue // dropped since we advertised it
		}
		if sent >= maxBatch {
			break
		}
		if e.tokens < 1 {
			break
		}
		e.tokens--
		sent++
		d := e.boxes.data.Take()
		d.Msg = *m
		e.n.Unicast(from, sim.KindData, d, m.PayloadBits+dataHeaderBits)
	}
}

// refillTokens tops up the data-rate bucket.
func (e *Epidemic) refillTokens() {
	now := e.n.Now()
	e.tokens += (now - e.lastRefill) * dataSendRate
	e.lastRefill = now
	if burst := float64(maxBatch); e.tokens > burst {
		e.tokens = burst
	}
}

// onData buffers an incoming message and records delivery when we are the
// destination. Delivered messages stay buffered — epidemic routing has no
// acknowledgment machinery, so the destination keeps (and re-advertises)
// the message like any relay.
func (e *Epidemic) onData(f *dataFrame, from int) {
	m := f.Msg
	m.Hops++
	delete(e.wants, m.ID)
	if m.Dst == e.n.ID() {
		if r := e.n.MessageRanks().Rank(m.ID); !e.deliveredHere.Has(r) {
			e.deliveredHere.Add(r)
			e.n.ReportDelivered(&m)
		}
	}
	e.store(&m)
}
