package main

// The benchmark's own generator: splitmix64. Every access sequence and op
// mix comes from it, seeded by -seed, so a workload's inputs depend on
// nothing but the seed — not on math/rand's algorithm of the day.

const golden = 0x9E3779B97F4A7C15

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

type rng struct{ s uint64 }

// newRNG derives an independent stream (one per proc, lane or phase) from
// the run's seed.
func newRNG(seed, stream uint64) *rng {
	return &rng{s: mix64(seed^golden) + mix64(stream)}
}

func (r *rng) next() uint64 {
	r.s += golden
	return mix64(r.s)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// stamp is the word the sim workloads write into page pg during the
// write-warm and expect back on every later load. Never zero, so a page
// that lost its contents (fresh remote memory reads as zeros) cannot pass.
func stamp(seed, pg uint64) uint64 {
	return mix64(seed*0xD6E8FEB86659FD93^pg) | 1
}
