package sim

import (
	"math/rand/v2"
	"time"

	"glr/internal/dtn"
	"glr/internal/geom"
	"glr/internal/mac"
	"glr/internal/mobility"
)

// Protocol is the routing-protocol hook set. The GLR implementation lives
// in internal/core; the epidemic baseline in internal/epidemic. All
// callbacks run on the simulation goroutine.
type Protocol interface {
	// Init is called once after the node is fully wired, before any
	// event fires.
	Init(n *Node)
	// OnMessageGenerated hands the protocol a freshly created message for
	// which this node is the source. The box is the world's and is valid
	// only during the call: the world refills it for the next message,
	// so a protocol that keeps the message copies it.
	OnMessageGenerated(m *dtn.Message)
	// OnFrame delivers a received protocol frame payload.
	OnFrame(payload any, from int)
	// OnSent reports the fate of a payload this node passed to Unicast:
	// ok is false when the unicast was abandoned (no acknowledgment
	// after the MAC's retries, a full link-layer queue, or a crashed
	// sender). It runs once per Unicast, after every reception of the
	// frame has been delivered, so the payload may be recycled here.
	OnSent(payload any, ok bool)
	// OnBeacon notifies the protocol that a beacon was heard (node-level
	// neighbor/location bookkeeping has already run). b.Neighbors is the
	// sender's advertised list, which neighbor rows read in place (see
	// Beacon): implementations must not modify it, and must copy it if
	// they keep it.
	OnBeacon(b Beacon)
	// StorageUsed returns the number of messages currently held, the
	// paper's storage metric.
	StorageUsed() int
}

// Beacon is the periodic IMEP-style hello: the sender's position and its
// current 1-hop neighbor list (which gives listeners 2-hop knowledge).
//
// Neighbors is written once, into a slot of the sender's advRing, and
// every receiver's neighbor row reads it in place: nobody may modify it
// while a row may read it, which the ring guarantees by reusing a slot
// only neighborExpiry after its hello. Anyone who keeps the list beyond
// that copies it.
type Beacon struct {
	From      int
	Pos       geom.Point
	Time      float64
	Neighbors []dtn.NeighborNeighbor
}

// beaconBits returns the airtime size of a beacon: 24 bytes of fixed
// fields plus 20 per advertised neighbor.
func beaconBits(neighborCount int) int {
	return (24 + 20*neighborCount) * 8
}

// FrameKind classifies transmissions for the overhead counters.
type FrameKind int

// Frame classes.
const (
	KindControl FrameKind = iota
	KindData
	KindAck
)

// Node is one mobile station: radio + protocol + the node-level tables
// every DTN node keeps. Its movement lives in the world's segment table
// (see World.pos).
type Node struct {
	id    int
	world *World
	radio *mac.Radio
	proto Protocol
	rng   *rand.Rand

	neighbors dtn.NeighborTable
	locations dtn.LocationTable
	// adv holds the node's last advertised lists; nil until its first
	// hello, so building a world allocates no rings.
	adv *advRing
}

// advRing is a node's last advSlots advertised neighbor lists, each with
// the time of the hello that carried it. Receivers' neighbor rows read
// these arrays in place (dtn.NeighborTable.Observe keeps no copy), so a
// list costs O(deg) once per hello instead of once per receiver.
//
// A row carrying a list has LastSeen equal to the slot's time, and every
// read of a node's rows first drops those last seen at or before
// now-neighborExpiry (Node.Neighbors). A slot whose time passes that
// same test is therefore read by no row, and only then is its array
// rewritten; a younger slot that comes round takes a fresh array and
// leaves the old one to the readers and the garbage collector. With
// advSlots·beaconInterval > neighborExpiry that happens only when a
// node's hellos come closer together than usual.
type advRing struct {
	slots [advSlots]struct {
		list []dtn.NeighborNeighbor
		at   float64
	}
	next int
}

// ID returns the node id (0-based, dense).
func (n *Node) ID() int { return n.id }

// Now returns the current simulated time.
func (n *Node) Now() float64 { return n.world.sched.Now() }

// Pos returns the node's current true position.
func (n *Node) Pos() geom.Point { return n.world.pos(n.id) }

// Range returns the transmission range.
func (n *Node) Range() float64 { return n.world.cfg.Range }

// Region returns the deployment region.
func (n *Node) Region() mobility.Region { return n.world.cfg.Region }

// NodeCount returns the number of nodes in the network.
func (n *Node) NodeCount() int { return n.world.cfg.N }

// StorageLimit returns the per-node storage bound (0 = unlimited).
func (n *Node) StorageLimit() int { return n.world.cfg.StorageLimit }

// MessageRanks returns the world's rank table of every message its
// traffic generates, shared read-only by all nodes and built on the
// first call in the world.
func (n *Node) MessageRanks() *dtn.MessageRanks { return n.world.messageRanks() }

// Rand returns the node's private random stream: a 16-byte PCG
// generator from rng.New, seeded from the run seed and the node id.
func (n *Node) Rand() *rand.Rand { return n.rng }

// After schedules fn after d seconds.
func (n *Node) After(d float64, fn func()) {
	n.world.sched.After(d, fn)
}

// At schedules fn at absolute simulated time t, which must not be in the
// past.
func (n *Node) At(t float64, fn func()) {
	n.world.sched.At(t, fn)
}

// Neighbors returns the node's neighbor table with stale rows (unheard
// for neighborExpiry) already dropped.
func (n *Node) Neighbors() *dtn.NeighborTable {
	n.neighbors.Expire(n.Now() - neighborExpiry)
	return &n.neighbors
}

// Locations returns the node's location table (§2.3.1 diffusion state).
func (n *Node) Locations() *dtn.LocationTable { return &n.locations }

// PhaseProfiled reports whether the run collects per-phase wall-clock
// attribution (see World.EnablePhaseProfile).
func (n *Node) PhaseProfiled() bool { return n.world.prof != nil }

// AddAntiEntropyTime folds d into the run's anti-entropy phase total.
// No-op when the run is not profiled.
func (n *Node) AddAntiEntropyTime(d time.Duration) {
	if n.world.prof != nil {
		n.world.prof.AntiEntropy += d
	}
}

// OraclePosition returns the true current position of any node. It backs
// the paper's evaluation assumptions ("source knows the true destination
// location" and the all-nodes-know regime of Table 2); protocols must not
// use it outside those configured regimes.
func (n *Node) OraclePosition(id int) geom.Point {
	return n.world.pos(id)
}

// Unicast queues a unicast frame. The protocol learns its fate from
// OnSent(payload, ok) once the MAC resolves it. Two cases resolve it
// before Unicast returns, with ok false: a crashed sender, which sends
// and counts no frame, and a full link-layer queue.
func (n *Node) Unicast(dst int, kind FrameKind, payload any, bits int) {
	if n.world.nodeDown(n.id) {
		n.proto.OnSent(payload, false)
		return
	}
	f := n.world.frames.Take()
	f.Dst, f.Bits, f.Payload = dst, bits, payload
	n.countFrame(kind)
	n.radio.Send(f)
}

func (n *Node) countFrame(kind FrameKind) {
	switch kind {
	case KindControl:
		n.world.collector.CountControlFrame()
	case KindData:
		n.world.collector.CountDataFrame()
	case KindAck:
		n.world.collector.CountAck()
	}
}

// ReportDelivered records a message arrival at this node (the
// destination).
func (n *Node) ReportDelivered(m *dtn.Message) {
	n.world.collector.Delivered(n.world.messageRanks(), m.ID, n.Now(), m.Hops)
}

// onReceive is the radio delivery callback.
func (n *Node) onReceive(f *mac.Frame) {
	if bf, ok := f.Payload.(*beaconFrame); ok {
		n.handleBeacon(bf.b)
		return
	}
	n.proto.OnFrame(f.Payload, f.Src)
}

// onSent is the radio completion callback. Every reception of the frame
// has already been delivered (the MAC resolves receptions before
// reporting the sender), so the frame — and, for hellos, the beacon
// box — recycles here, after the protocol has seen its payload's fate.
func (n *Node) onSent(f *mac.Frame, ok bool) {
	if bf, isBeacon := f.Payload.(*beaconFrame); isBeacon {
		n.world.putBeacon(bf)
		return
	}
	n.proto.OnSent(f.Payload, ok)
	*f = mac.Frame{}
	n.world.frames.Put(f)
}

// handleBeacon performs the node-level bookkeeping every DTN node does on
// a hello: refresh the neighbor table and the location table ("two nodes
// exchange their location information whenever they come within
// communication range of each other"), then inform the protocol.
func (n *Node) handleBeacon(b Beacon) {
	n.neighbors.Observe(dtn.NeighborInfo{
		ID:        b.From,
		Pos:       b.Pos,
		LastSeen:  b.Time,
		Neighbors: b.Neighbors,
	})
	n.locations.Update(b.From, b.Pos, b.Time)
	n.proto.OnBeacon(b)
}

// sendBeacon broadcasts this node's current hello from a pooled frame,
// its advertised-neighbor list written into the next slot of the node's
// advRing, so a steady-state beacon allocates nothing. The advertised
// position is the true one in fault-free runs; under GPS noise or a
// Byzantine plan the node claims somewhere else, and every receiver's
// tables trust the claim.
func (n *Node) sendBeacon() {
	if n.world.nodeDown(n.id) {
		return
	}
	now := n.Now()
	adv := n.advertise(now)
	bf := n.world.beacons.Take()
	bf.b = Beacon{From: n.id, Pos: n.world.advertisedPos(n.id, n.Pos()), Time: now, Neighbors: adv}
	bf.frame = mac.Frame{Dst: mac.Broadcast, Bits: beaconBits(len(adv)), Payload: bf}
	n.countFrame(KindControl)
	n.radio.Send(&bf.frame)
}

// advertise writes the node's live neighbor list into the next ring slot,
// stamped now, and returns it (see advRing for when the slot's array is
// reused).
func (n *Node) advertise(now float64) []dtn.NeighborNeighbor {
	r := n.adv
	if r == nil {
		r = new(advRing)
		n.adv = r
	}
	s := &r.slots[r.next]
	r.next = (r.next + 1) % advSlots
	var buf []dtn.NeighborNeighbor
	if s.list != nil && s.at <= now-neighborExpiry {
		if p := n.world.poisonAdv; p != nil {
			p(s.list[:cap(s.list)])
		} else {
			buf = s.list[:0]
		}
	}
	s.list = n.Neighbors().AppendAdvertised(buf)
	s.at = now
	return s.list
}
