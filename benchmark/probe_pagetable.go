package main

import (
	"time"

	"dilos/internal/pagetable"
)

// pagetableProbes time the unified page table: a lookup in a sparse
// populated table, and the tag transitions of one page's life cycle.
func pagetableProbes(seed uint64) []probe {
	// 64 Ki pages spread over 4 Ki leaves: lookups walk all four levels and
	// miss the CPU cache the way a large address space does.
	const populated = 1 << 16
	tbl := pagetable.New()
	vpns := make([]pagetable.VPN, populated)
	gen := newRNG(seed, 0x9a9e)
	for i := range vpns {
		vpns[i] = pagetable.VPN(uint64(i/16)<<13 | gen.next()%512)
		tbl.Set(vpns[i], pagetable.Remote(uint64(i)))
	}
	var sink pagetable.PTE
	return []probe{
		{metric: "pagetable.lookup_ns", per: 1, fn: func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				sink ^= tbl.Lookup(vpns[(uint64(i)*golden>>40)%populated])
			}
			return time.Since(t0)
		}},
		{metric: "pagetable.transition_ns", per: 3, fn: func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				v := vpns[i%populated]
				remote, fetching, local := pagetable.Remote(uint64(i%populated)), pagetable.Fetching(7), pagetable.Local(3, true)
				// Set, not a transition, puts the page where the cycle starts.
				tbl.Set(v, remote)
				if !tbl.TryTransition(v, remote, fetching) || !tbl.TryTransition(v, fetching, local) ||
					!tbl.TryTransition(v, local, remote) {
					panic("benchmark: a legal transition was refused")
				}
			}
			return time.Since(t0)
		}},
	}
}
