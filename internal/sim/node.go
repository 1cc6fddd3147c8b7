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
	// which this node is the source.
	OnMessageGenerated(m *dtn.Message)
	// OnFrame delivers a received protocol frame payload.
	OnFrame(payload any, from int)
	// OnBeacon notifies the protocol that a beacon was heard (node-level
	// neighbor/location bookkeeping has already run). b.Neighbors aliases
	// a pooled buffer recycled after the airing resolves; implementations
	// must copy it if they keep it.
	OnBeacon(b Beacon)
	// StorageUsed returns the number of messages currently held, the
	// paper's storage metric.
	StorageUsed() int
}

// Beacon is the periodic IMEP-style hello: the sender's position and its
// current 1-hop neighbor list (which gives listeners 2-hop knowledge).
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

	// sentCB is allocated lazily on the first Unicast with a callback:
	// beacon-only nodes (and every node in a giant world before it
	// forwards data) never pay for the map.
	sentCB map[*mac.Frame]func(ok bool)
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

// Unicast queues a unicast frame; cb (may be nil) fires when the MAC
// resolves the frame (delivered or abandoned). It reports whether the
// frame was accepted by the link-layer queue; when it returns false, cb
// has already been invoked with ok=false.
func (n *Node) Unicast(dst int, kind FrameKind, payload any, bits int, cb func(ok bool)) bool {
	if n.world.nodeDown(n.id) {
		if cb != nil {
			cb(false)
		}
		return false
	}
	f := n.world.takeFrame()
	f.Dst, f.Bits, f.Payload = dst, bits, payload
	if cb != nil {
		if n.sentCB == nil {
			n.sentCB = make(map[*mac.Frame]func(ok bool))
		}
		n.sentCB[f] = cb
	}
	n.countFrame(kind)
	return n.radio.Send(f)
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
// destination). It reports whether this was the first copy to arrive.
func (n *Node) ReportDelivered(m *dtn.Message) bool {
	return n.world.collector.Delivered(m.ID, n.Now(), m.Hops)
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
// payload with its advertised-neighbor buffer — recycles here.
func (n *Node) onSent(f *mac.Frame, ok bool) {
	if cb, exists := n.sentCB[f]; exists {
		delete(n.sentCB, f)
		cb(ok)
	}
	if bf, isBeacon := f.Payload.(*beaconFrame); isBeacon {
		n.world.putBeacon(bf)
		return
	}
	n.world.putFrame(f)
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

// sendBeacon broadcasts this node's current hello from a pooled frame:
// the advertised-neighbor list is built in the pooled buffer, so a
// steady-state beacon allocates nothing. The advertised position is the
// true one in fault-free runs; under GPS noise or a Byzantine plan the
// node claims somewhere else, and every receiver's tables trust the
// claim.
func (n *Node) sendBeacon() {
	if n.world.nodeDown(n.id) {
		return
	}
	bf := n.world.takeBeacon()
	adv := n.Neighbors().AppendAdvertised(bf.b.Neighbors[:0])
	bf.b = Beacon{From: n.id, Pos: n.world.advertisedPos(n.id, n.Pos()), Time: n.Now(), Neighbors: adv}
	bf.frame = mac.Frame{Dst: mac.Broadcast, Bits: beaconBits(len(adv)), Payload: bf}
	n.countFrame(KindControl)
	n.radio.Send(&bf.frame)
}
