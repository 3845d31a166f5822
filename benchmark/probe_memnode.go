package main

import (
	"time"

	"dilos/internal/memnode"
)

// memnodeProbes time the memory node's one-sided service path: the copy
// floor under a simulated fault and under a wire request alike.
func memnodeProbes() []probe {
	const size = 64 << 20
	node := memnode.New(size, wireKey)
	buf := make([]byte, pageSize)
	// Touch the whole region first: untouched memory is one shared zero
	// page, and copying out of it never leaves the CPU cache.
	for off := uint64(0); off < size; off += pageSize {
		if err := node.WriteAt(off, buf); err != nil {
			panic(err)
		}
	}
	at := func(i int) uint64 { return (uint64(i) * golden >> 40) % (size / pageSize) * pageSize }
	return []probe{
		{metric: "memnode.read4k_ns", per: 1, fn: func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if err := node.ReadAt(at(i), buf); err != nil {
					panic(err)
				}
			}
			return time.Since(t0)
		}},
		{metric: "memnode.write4k_ns", per: 1, fn: func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if err := node.WriteAt(at(i), buf); err != nil {
					panic(err)
				}
			}
			return time.Since(t0)
		}},
	}
}
