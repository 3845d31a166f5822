package main

import (
	"math"
	"time"

	"dilos/internal/fabric"
	"dilos/internal/memnode"
	"dilos/internal/sim"
)

// fig2DeltaNs is the paper's Figure 2 reading the fabric model was
// calibrated to: a 4 KiB READ takes about 0.6 us longer than a 128 B one.
// It is the calibration input, so it is reported on its own and kept out
// of model_err_pct, which only holds values the calibration never saw.
const fig2DeltaNs = 600

// fabricProbes report the fabric model's virtual latency against its
// calibration point, and time its host cost per op and per batched request.
func fabricProbes(ms metricSet) []probe {
	const size = 8 << 20
	node := memnode.New(size, wireKey)
	link := fabric.NewLink(node, fabric.DefaultParams())
	qp := link.MustQP("probe", wireKey)
	buf := make([]byte, pageSize)

	// An idle link: the op's virtual latency is its completion time.
	virt := func(bytes int) float64 {
		idle := fabric.NewLink(node, fabric.DefaultParams()).MustQP("calib", wireKey)
		op := idle.Read(0, 0, buf[:bytes])
		return float64(op.CompleteAt - op.IssuedAt)
	}
	r4k, r128 := virt(pageSize), virt(128)
	ms.set("fabric.read4k_virt_us", r4k/1e3, 1)
	ms.set("fabric.calib_err_pct", 100*math.Abs((r4k-r128)-fig2DeltaNs)/fig2DeltaNs, 1)

	at := func(i int) uint64 { return (uint64(i) * golden >> 40) % (size / pageSize) * pageSize }
	// Each op is issued when the one before completed, so the link's busy
	// horizon never runs ahead of the clock.
	var now sim.Time
	const batch = 8
	reqs := make([]fabric.Req, batch)
	for i := range reqs {
		reqs[i] = fabric.Req{Kind: fabric.OpRead, Segs: []fabric.Seg{{Off: uint64(i) * pageSize, Buf: make([]byte, pageSize)}}}
	}
	ops := make([]*fabric.Op, 0, batch)
	return []probe{
		{metric: "fabric.read_ns", per: 1, fn: func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				now = qp.Read(now, at(i), buf).CompleteAt
			}
			return time.Since(t0)
		}},
		{metric: "fabric.submit_ns_per_req", per: batch, fn: func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				ops = qp.Submit(now, reqs, ops[:0])
				now = ops[batch-1].CompleteAt
			}
			return time.Since(t0)
		}},
	}
}
