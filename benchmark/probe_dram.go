package main

import (
	"time"

	"dilos/internal/dram"
)

// dramProbes time the frame pool's allocator.
func dramProbes() []probe {
	pool := dram.NewPool(4096)
	return []probe{
		{metric: "dram.alloc_free_ns", per: 1, fn: func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				id, ok := pool.Alloc()
				if !ok {
					panic("benchmark: an idle pool refused a frame")
				}
				pool.Free(id)
			}
			return time.Since(t0)
		}},
	}
}
