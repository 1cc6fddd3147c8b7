package dtn

import (
	"math/rand"
	"testing"

	"glr/internal/geom"
)

// BenchmarkNeighborTable measures the steady-state per-beacon table work of
// one node: refresh a neighbor row (with its advertised list), expire,
// and rebuild the 2-hop point set — the sequence the simulator runs for
// every received beacon plus route check. The table does this
// allocation-free once warm.
func BenchmarkNeighborTable(b *testing.B) {
	const n = 1000 // world size
	const degree = 24
	rng := rand.New(rand.NewSource(17))
	t := new(NeighborTable)

	// Steady-state neighborhood: `degree` live neighbors, each
	// advertising `degree` of its own.
	nbrIDs := rng.Perm(n)[:degree]
	advs := make([][]NeighborNeighbor, degree)
	for i := range advs {
		advs[i] = make([]NeighborNeighbor, degree)
		for j := range advs[i] {
			advs[i][j] = NeighborNeighbor{ID: rng.Intn(n), Pos: geom.Pt(rng.Float64()*1000, rng.Float64()*1000)}
		}
	}
	for i, id := range nbrIDs {
		t.Observe(NeighborInfo{ID: id, Pos: geom.Pt(float64(id), 0), LastSeen: 0, Neighbors: advs[i]})
	}

	var ids []int
	var pts []geom.Point
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := float64(i)
		k := i % degree
		t.Observe(NeighborInfo{ID: nbrIDs[k], Pos: geom.Pt(float64(i%97), 1), LastSeen: now, Neighbors: advs[k]})
		t.Expire(now - 1e9) // nothing expires; measures the live scan
		ids, pts = t.AppendTwoHop(ids[:0], pts[:0], n, geom.Pt(0, 0))
	}
	_ = ids
	_ = pts
}

// BenchmarkAntiEntropy measures one epidemic anti-entropy exchange at the
// paper's 1180-message load: a buffer changes (one message leaves and
// returns, as custody churn would), advertises its summary, and a peer
// holding about 90% of the same messages diffs it against its own.
func BenchmarkAntiEntropy(b *testing.B) {
	const msgs, skew = 1180, 118 // the peer misses 118 of ours and holds 118 others
	id := func(i int) MessageID { return MessageID{Src: i % 50, Seq: i / 50} }
	self, peer := NewBuffer(0), NewBuffer(0)
	held := make([]*Message, msgs)
	for i := range held {
		held[i] = &Message{ID: id(i)}
		self.Add(held[i])
		peer.Add(&Message{ID: id(i + skew)})
	}
	lacking := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := held[i%msgs]
		self.Remove(m.ID)
		self.Add(m)
		lacking = 0
		for range peer.Lacks(self.Summary()) {
			lacking++
		}
	}
	if lacking != skew {
		b.Fatalf("peer lacks %d messages, want %d", lacking, skew)
	}
}
