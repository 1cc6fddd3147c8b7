// Package core implements GLR — the Geometric Localized Routing protocol
// that is the paper's contribution (§2). Per node it keeps one custody
// table (§2.3.2) of held copies, each copy one record with the message,
// its Store or Cache area and the routing state kept for it: the
// pending-ack flag set (acks identify the tree branch), the face-routing
// state (§2.3, local-minimum escape), the stale-location stuck timer
// (§3.3 remedy) and the face-failure backoff. A copy's state leaves with
// the copy, so per-message state cannot outlive what it describes.
//
// The routing loop (Algorithm 2) runs every checkinterval: construct the
// LDTG from 2-hop beacon knowledge, pick MaxDSTD/MinDSTD/MidDSTD next hops
// for the tree flags each message carries (Algorithm 1 decides how many
// trees at the source), unicast copies with custody transfer, and fall
// back to face routing or store-and-wait when no neighbor makes progress.
package core

import (
	"fmt"

	"glr/internal/dtn"
	"glr/internal/geom"
	"glr/internal/ldt"
	"glr/internal/sim"
)

// LocationKnowledge selects the Table-2 location-availability regime.
type LocationKnowledge int

// Location regimes.
const (
	// LocSourceKnows: the source stamps the true destination location at
	// generation time; relays refine it by diffusion (the paper's
	// default assumption).
	LocSourceKnows LocationKnowledge = iota
	// LocAllKnow: every node reads the true destination location before
	// each routing decision (Table 2, row 1).
	LocAllKnow
	// LocNoneKnow: the source stamps a random location ("random location
	// is given at the beginning"); only diffusion corrects it (Table 2,
	// row 4).
	LocNoneKnow
)

// Config parameterises GLR. Start from DefaultConfig.
type Config struct {
	// CheckInterval is the store-and-forward route re-check period
	// (§3.2; the paper's default is 0.9 s, swept in Figure 3).
	CheckInterval float64
	// Copies forces the number of identical copies (tree flags). 0 means
	// decide per Algorithm 1 from network sparsity.
	Copies int
	// Custody enables custody transfer (§2.3.2). Table 3 compares off.
	Custody bool
	// Location selects the Table-2 knowledge regime.
	Location LocationKnowledge
	// ProgressHysteresis is the fraction of the transmission range by
	// which a neighbor must be closer to the destination before a relay
	// hands the message over. Mobile nodes travelling together jostle
	// past each other constantly; without a margin every route check
	// swaps custody back and forth inside the pair, inflating hop counts
	// without advancing the message.
	ProgressHysteresis float64
	// DisableFaceRouting makes local minima store-and-wait instead of
	// walking faces — an ablation of the paper's §2.3 escape mechanism.
	DisableFaceRouting bool
	// Spanner selects the routing graph: the paper's LDTG (default),
	// the Gabriel graph (a simpler planar spanner, but with unbounded
	// stretch), or the raw unit-disk graph (no planarization — face
	// routing loses its guarantees). Ablation knob for the §2.1 design
	// choice.
	Spanner ldt.Variant
}

// Fixed protocol settings: the paper's evaluation never varies them.
const (
	// cacheTimeout is how long a sent message waits in the Cache for a
	// custody ack before moving back to the Store (§2.3.2).
	cacheTimeout = 4.5
	// staleRelocateAfter is the stuck time after which a carrier that is
	// closest to the (stale) destination estimate re-draws it (§3.3).
	staleRelocateAfter = 30
	// connectivityS is the s in the Georgiou et al. connectivity bound
	// (connected w.p. ≥ 1−1/s); Algorithm 1 compares the node range
	// against the resulting threshold radius.
	connectivityS = 10
	// faceRetryBackoff is the minimum wait after a failed face walk
	// before the walk may be retried even if the local topology changed.
	// In sparse mobile networks cluster membership churns every few
	// seconds; unbounded retries circulate messages around disconnected
	// clusters, burning transmissions without progress.
	faceRetryBackoff = 15
	// geoHeaderBits/ackBits size the protocol's on-air overhead.
	geoHeaderBits = 40 * 8
	ackBits       = 20 * 8
)

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{
		CheckInterval:      0.9,
		Copies:             0,
		Custody:            true,
		Location:           LocSourceKnows,
		ProgressHysteresis: 0.2,
		Spanner:            ldt.VariantLDTG,
	}
}

// Validate reports a descriptive error for unusable configurations.
func (c Config) Validate() error {
	switch {
	case c.CheckInterval <= 0:
		return fmt.Errorf("core: check interval %v must be positive", c.CheckInterval)
	case c.Copies < 0 || c.Copies > 5:
		return fmt.Errorf("core: copies %d must be 0 (auto) or 1..5", c.Copies)
	case c.ProgressHysteresis < 0 || c.ProgressHysteresis >= 1:
		return fmt.Errorf("core: progress hysteresis %v must be in [0,1)", c.ProgressHysteresis)
	case c.Spanner != ldt.VariantLDTG && c.Spanner != ldt.VariantGabriel && c.Spanner != ldt.VariantUDG:
		return fmt.Errorf("core: unknown spanner variant %d", int(c.Spanner))
	}
	return nil
}

// msgState is the routing state a node keeps for one held copy besides
// the message itself, part of the copy's record (copyRec). A new copy's
// state is zero.
type msgState struct {
	// pending tracks the tree-branch flags that were sent and not yet
	// acknowledged ("this notification contains ... the extracted tree
	// branch information"). hasPending distinguishes "no entry" from a
	// fully-acked zero value.
	pending    dtn.TreeFlags
	hasPending bool
	// face carries face-routing state while the copy is stored here.
	face    ldt.FaceState
	hasFace bool
	// stuckSince records when the stored message last failed to make
	// any progress, for the §3.3 stale-location remedy.
	stuckSince float64
	hasStuck   bool
	// failTopo remembers the neighborhood signature at the moment a face
	// walk failed; the walk is not retried until the local topology
	// changes (otherwise every check re-traverses the same dead loop).
	failTopo    uint64
	hasFailTopo bool
	// failAt rate-limits face-walk retries after failure.
	failAt    float64
	hasFailAt bool
}

// checkScratch holds the buffers a route check fills and drops, reused
// across checks so the routing loop stops materializing intermediate
// slices and maps per tick. One serves every node of a world (shared via
// the factory, like maint and pool): a route check runs to completion
// before any other node's check or handler runs, and nothing it calls
// back into (OnSent after a synchronous unicast failure) touches them.
type checkScratch struct {
	seen    dtn.IDMarks   // AppendTwoHop's dedup set
	thIDs   []int         // 2-hop ids (AppendTwoHop output)
	thPts   []geom.Point  // 2-hop positions, parallel to thIDs
	stored  []*copyRec    // per-check snapshot of the Store (or of the expired Cache copies)
	view    ldt.LocalView // the route check's spanner view, refilled in place
	closer  []cand        // progress candidates for the message being routed
	targets []hopTarget   // per-tree forwarding picks, sorted by dst
}

// hopTarget is one forwarding decision: the tree flags the copy sent to
// dst carries.
type hopTarget struct {
	dst   int
	flags dtn.TreeFlags
}

// GLR is one node's protocol instance.
type GLR struct {
	cfg Config
	n   *sim.Node
	// maint answers spanner queries with one empty-circle scan per edge
	// over the node's 3-hop view set, scanning each neighbor's 2-hop set
	// only for an edge the 3-hop points reject. It keeps no state between
	// queries; it is shared by every node of a world (the simulation is
	// single-threaded) so its scratch buffers are reused and its counters
	// cover the whole world.
	maint *ldt.Maintainer
	// pool recycles frame, ack and copy-record boxes across all nodes of
	// the world (shared via the factory, like maint).
	pool *boxPool

	// table holds the node's copies, Store and Cache, each with its
	// routing state; see custodyTable.
	table custodyTable
	// delivered holds the ranks of the messages delivered to this node,
	// so a later duplicate copy is recognized.
	delivered dtn.RankSet

	// scr is the route check's scratch, shared like pool.
	scr     *checkScratch
	checkFn func() // routeCheck bound once (rescheduling a method value would allocate)

	// nextCheck is the node's next route-check cadence point: the time
	// of the armed check or, while asleep (checkArmed false: Store and
	// Cache were both empty when the last check ended), the point that
	// check would have armed. See routeCheck and wake.
	nextCheck  float64
	checkArmed bool

	stats Stats
}

// Stats counts forwarding decisions, exposed for ablation benchmarks and
// white-box tests.
type Stats struct {
	GreedyForwards uint64 // tree-based forwards (Algorithm 2 main path)
	DirectForwards uint64 // destination was an audible neighbor
	FaceForwards   uint64 // perimeter-mode forwards
	FaceFailures   uint64 // face walks that completed a loop
	Relocations    uint64 // §3.3 stale-location re-draws
	CustodyReturns uint64 // cache-timeout or MAC-failure returns to Store
}

// Stats returns the node's forwarding counters.
func (g *GLR) Stats() Stats { return g.stats }

// New builds a GLR factory for sim.NewWorld.
func New(cfg Config) (sim.ProtocolFactory, error) {
	factory, _, err := NewInstrumented(cfg)
	return factory, err
}

// NewInstrumented is New plus access to the world's shared spanner
// Maintainer, for experiments that report its query count and
// construction time.
// Every node built by the returned factory shares the one Maintainer
// (and one boxPool and checkScratch).
func NewInstrumented(cfg Config) (sim.ProtocolFactory, *ldt.Maintainer, error) {
	return newFactory(cfg, &boxPool{})
}

// newFactory is NewInstrumented over a given pool.
func newFactory(cfg Config, pool *boxPool) (sim.ProtocolFactory, *ldt.Maintainer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	maint := ldt.NewMaintainer()
	scr := &checkScratch{}
	return func(n *sim.Node) sim.Protocol {
		return &GLR{
			cfg:   cfg,
			n:     n,
			maint: maint,
			pool:  pool,
			scr:   scr,
			table: custodyTable{capacity: n.StorageLimit()},
		}
	}, maint, nil
}

// Init implements sim.Protocol: the periodic route check gets a random
// phase so nodes do not check in lockstep. The node starts asleep, with
// empty storage; its first message arms the check (see wake).
func (g *GLR) Init(n *sim.Node) {
	g.checkFn = g.routeCheck
	phase := n.Rand().Float64() * g.cfg.CheckInterval
	g.nextCheck = n.Now() + phase
}

// wake arms the route check of a sleeping node at its next cadence
// point strictly after now, found by adding CheckInterval to the last
// one exactly as the always-running check would have, and scheduled at
// that absolute time (After(t-now) would round). The check therefore
// fires at the instant it would have fired had it never slept, and what
// it did at the skipped points was nothing: with Store and Cache empty a
// check neither routes nor expires anything. Only an exact float tie
// between the wake instant and a cadence point can order events
// differently: the always-running check would have run at that instant
// after or before the arrival, by event sequence, where the woken check
// runs one interval later.
func (g *GLR) wake() {
	now := g.n.Now()
	t := g.nextCheck
	for t <= now {
		t += g.cfg.CheckInterval
	}
	g.nextCheck = t
	g.checkArmed = true
	g.n.At(t, g.checkFn)
}

// Restart implements sim.Restarter (fault-injected node churn): the
// node reboots with empty custody storage and no per-message state —
// even the delivered memory that suppresses re-acceptance is gone. The
// shared spanner Maintainer holds no node state. The route check keeps
// its cadence across the restart: an armed check finds the table empty
// and sleeps, and a sleeping node stays asleep. The table is emptied in
// place and every record goes back to the pool.
func (g *GLR) Restart() {
	g.table.drain(&g.pool.recs)
	g.delivered.Clear()
}

// StorageUsed implements sim.Protocol: Store + Cache occupancy.
func (g *GLR) StorageUsed() int { return g.table.total() }

// CopyCount implements Algorithm 1: single copy when the transmission
// range exceeds the connectivity-threshold radius (the network is likely
// connected and "multiple message copies should be avoided"), three trees
// when sparse, five when very sparse ("if more than three identical
// message copies are needed ... multiple MidDSTD trees are extracted").
func (g *GLR) CopyCount() int {
	if g.cfg.Copies > 0 {
		return g.cfg.Copies
	}
	rstar := geom.ConnectivityThreshold(g.n.NodeCount(), g.n.Region().Area(), connectivityS)
	r := g.n.Range()
	switch {
	case r >= rstar:
		return 1
	case r >= rstar/4:
		return 3
	default:
		return 5
	}
}

// OnMessageGenerated implements sim.Protocol (the source-side half of
// Algorithm 2). The table copies m in, so the world's box is free again
// when the call returns.
func (g *GLR) OnMessageGenerated(m *dtn.Message) {
	now := g.n.Now()
	switch g.cfg.Location {
	case LocAllKnow, LocSourceKnows:
		m.DstLoc = g.n.OraclePosition(m.Dst)
		m.DstLocTime = now
		m.DstLocKnown = true
	case LocNoneKnow:
		m.DstLoc = g.n.Region().RandomPoint(g.n.Rand())
		m.DstLocTime = now
		m.DstLocKnown = false
	}
	flags := dtn.TreeFlags(0)
	for _, f := range dtn.AllTreeFlags(g.CopyCount()) {
		flags |= f
	}
	m.Flags = flags
	g.addToStore(m)
}

// addToStore copies m into the custody table and returns the record of
// the held copy (a new one, or the copy m merged into). It is the only
// way a message enters an empty node, so it wakes a sleeping route
// check.
func (g *GLR) addToStore(m *dtn.Message) *copyRec {
	rec := g.table.add(m, &g.pool.recs)
	if !g.checkArmed {
		g.wake()
	}
	return rec
}
