package dtn

import (
	"math/rand"
	"testing"

	"glr/internal/geom"
)

// BenchmarkNeighborTable measures the steady-state per-beacon table work of
// one node: refresh a neighbor row (which stores the sender's advertised
// list in place, without a copy), expire, and rebuild the 2-hop point set
// — the sequence the simulator runs for every received beacon plus route
// check. The table does this allocation-free once warm.
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
	var seen IDMarks
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := float64(i)
		k := i % degree
		t.Observe(NeighborInfo{ID: nbrIDs[k], Pos: geom.Pt(float64(i%97), 1), LastSeen: now, Neighbors: advs[k]})
		t.Expire(now - 1e9) // nothing expires; measures the live scan
		ids, pts = t.AppendTwoHop(ids[:0], pts[:0], n, geom.Pt(0, 0), &seen)
	}
	_ = ids
	_ = pts
}

// BenchmarkAntiEntropy measures one epidemic anti-entropy exchange at the
// paper's 1180-message load: a node's held set changes (one message
// leaves and returns, as custody churn would), it advertises its summary
// vector, and a peer holding about 90% of the same messages diffs it
// against its own and names each message it lacks.
func BenchmarkAntiEntropy(b *testing.B) {
	const msgs, skew = 1180, 118 // the peer misses 118 of ours and holds 118 others
	const sources = 50
	id := func(i int) MessageID { return MessageID{Src: i % sources, Seq: i / sources} }
	count := make([]int, sources)
	for i := 0; i < msgs+skew; i++ {
		count[id(i).Src]++
	}
	ranks := NewMessageRanks(count)
	var self, peer RankSet
	for i := 0; i < msgs; i++ {
		self.Add(ranks.Rank(id(i)))
		peer.Add(ranks.Rank(id(i + skew)))
	}
	lacking := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ranks.Rank(id(i % msgs))
		self.Remove(r)
		self.Add(r)
		lacking = 0
		for r := range peer.Lacks(self.Summary()) {
			_ = ranks.ID(r) // the id a request would carry
			lacking++
		}
	}
	if lacking != skew {
		b.Fatalf("peer lacks %d messages, want %d", lacking, skew)
	}
}
