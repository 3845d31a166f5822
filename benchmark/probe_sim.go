package main

import (
	"time"

	"dilos/internal/sim"
)

// simProbes time the engine alone: a scheduler switch, clock advance
// without a switch, and spawning a proc and running it to exit.
func simProbes() []probe {
	return []probe{
		{metric: "sim.switch_ns", per: 1, fn: func(n int) time.Duration {
			// Two procs ping-pong Sleep(1): every Sleep is one switch.
			eng := sim.New()
			var t0 time.Time
			var took time.Duration
			for k := 0; k < 2; k++ {
				k := k
				eng.Go("pingpong", func(p *sim.Proc) {
					if k == 0 {
						t0 = time.Now()
					}
					for i := 0; i < n/2; i++ {
						p.Sleep(1)
					}
					took = time.Since(t0)
				})
			}
			eng.Run()
			return took
		}},
		{metric: "sim.advance_ns", per: 1, fn: func(n int) time.Duration {
			eng := sim.New()
			var took time.Duration
			eng.Go("advance", func(p *sim.Proc) {
				t0 := time.Now()
				for i := 0; i < n; i++ {
					p.Advance(1)
				}
				took = time.Since(t0)
			})
			eng.Run()
			return took
		}},
		{metric: "sim.spawn_ns", per: 1, fn: func(n int) time.Duration {
			// Each spawn is a goroutine; engines of at most 4096 procs keep
			// the herd bounded, and amortise making the engine to nothing.
			t0 := time.Now()
			for left := n; left > 0; {
				chunk := min(left, 4096)
				eng := sim.New()
				for i := 0; i < chunk; i++ {
					eng.Go("spawn", func(*sim.Proc) {})
				}
				eng.Run()
				left -= chunk
			}
			return time.Since(t0)
		}},
	}
}
