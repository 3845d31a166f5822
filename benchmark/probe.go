package main

import (
	"time"
)

// A probe times a tight loop of calls into one layer's public functions,
// on state of its own (its own engine, table, pool or node), so the number
// is that layer's cost alone. Each probe has a file of its own per layer,
// so that a later change to one layer's API breaks one file.

const (
	probeBatches = 5
	// probeBatch is how long one batch runs; five of them make the 200 ms a
	// probe is given.
	probeBatch      = 40 * time.Millisecond
	probeBatchQuick = 2 * time.Millisecond
)

// probeFn runs n iterations of the probed call and returns how long they
// took. It owns its timing because some probes run inside a simulated proc
// and must not count the engine's start-up.
type probeFn func(n int) time.Duration

// probe is one named measurement: the metric it reports and what one
// iteration is divided by (a probe whose iteration does three transitions
// reports a third).
type probe struct {
	metric string
	per    float64
	fn     probeFn
}

// runProbes runs each probe: it grows n until a batch lasts probeBatch,
// runs probeBatches batches and reports the median ns per call, with a
// span around the whole probe.
func runProbes(c *config, tr *tracer, ms metricSet, probes []probe) {
	target := probeBatch
	if c.quick {
		target = probeBatchQuick
	}
	for _, p := range probes {
		id := tr.begin("probe " + p.metric)
		n := 64
		for {
			if took := p.fn(n); took >= target/2 || n >= 1<<28 {
				n = int(float64(n) * float64(target) / float64(max(took, time.Microsecond)))
				break
			}
			n *= 4
		}
		n = max(n, 1)
		per := make([]float64, probeBatches)
		for i := range per {
			per[i] = float64(p.fn(n).Nanoseconds()) / float64(n) / p.per
		}
		ms.setReps(p.metric, per)
		tr.end(id)
	}
}
