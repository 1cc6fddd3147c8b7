// Package rng builds every random stream of the simulator. Each stream
// is a math/rand/v2 PCG generator: 16 bytes of state and a constant-time
// seed, so a world can give every node its own streams without a
// per-node table. Both PCG words come from the seed through the
// SplitMix64 mixer, so adjacent integer seeds (the per-node seeds
// derived from a run seed) start at unrelated generator states.
package rng

import "math/rand/v2"

// golden is SplitMix64's increment, 2^64 divided by the golden ratio.
const golden = 0x9e3779b97f4a7c15

// SplitMix64 is Steele, Lea & Flood's SplittableRandom finalizer: it
// advances x by the golden increment and mixes the result. It seeds
// every stream built by New, and internal/fault hashes its stateless
// predicates through it.
func SplitMix64(x uint64) uint64 {
	x += golden
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// New returns the deterministic stream for seed: a PCG generator whose
// two state words are the first two outputs of a SplitMix64 sequence
// started at seed.
func New(seed int64) *rand.Rand {
	s := uint64(seed)
	return rand.New(rand.NewPCG(SplitMix64(s), SplitMix64(s+golden)))
}
