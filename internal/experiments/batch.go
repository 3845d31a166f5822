package experiments

import (
	"fmt"

	"dilos/internal/core"
	"dilos/internal/prefetch"
	"dilos/internal/redis"
	"dilos/internal/sim"
	"dilos/internal/stats"
	"dilos/internal/workloads"
)

// This file holds ext5: the doorbell-batching ablation. Figure 2 and §4.5
// show per-op base costs dominating small transfers; Leap gets its wins by
// issuing the whole prefetch window at once and Clio by amortizing
// doorbells. Ext5 measures what batched submission (core.Config.Batch)
// buys on an otherwise identical system: sequential read (prefetch window
// per doorbell), sequential write (cleaner write-back batches), k-means,
// and Redis GET over mixed value sizes, all at the memory-constrained
// 12.5 % local cache the paper highlights.

// BatchRow is one (workload, submission mode) measurement of ext5.
type BatchRow struct {
	Workload  string
	Batched   bool
	ReadGBs   float64  // sequential-read throughput (seq read leg)
	WriteGBs  float64  // app-visible write throughput (seq write leg)
	CleanGBs  float64  // write-back (cleaner+reclaimer) link bandwidth
	OpsPerS   float64  // Redis GET throughput (redis leg)
	Elapsed   sim.Time // workload completion time
	Doorbells int64    // fabric.batch.doorbells across all links
	BatchOps  int64    // fabric.batch.ops across all links
	Coalesced int64    // fabric.batch.coalesced_segs across all links
	MeanBatch float64  // ops per doorbell
}

func modeLabel(batched bool) string {
	if batched {
		return "batched"
	}
	return "per-op"
}

// fillBatchStats sums the doorbell-batching counters over the system's
// links into the row.
func fillBatchStats(row *BatchRow, sys *core.System) {
	for _, l := range sys.Links {
		row.Doorbells += l.Batches.N
		row.BatchOps += l.BatchedOps.N
		row.Coalesced += l.CoalescedSegs.N
	}
	if row.Doorbells > 0 {
		row.MeanBatch = float64(row.BatchOps) / float64(row.Doorbells)
	}
}

// ext5Seq is the sequential read/write leg at 12.5 % cache with a 31-page
// readahead window (Linux's default 128 KiB) — the configuration where
// every window pays per-op doorbells today and batching has the most to
// amortize. leg.Batch selects the submission mode.
func ext5Seq(leg *Run, write bool) BatchRow {
	sc := leg.Scale
	name := "read"
	if write {
		name = "write"
	}
	row := BatchRow{Workload: "seq " + name + " 12.5%", Batched: leg.Batch}
	eng := sim.New()
	sys := leg.dilos(eng, sc.SeqPages, 0.125, prefetch.NewReadahead(31), nil, nil, false)
	var d sim.Time
	sys.Launch("seq", 0, func(sp *core.DDCProc) {
		base, _ := sys.MmapDDC(sc.SeqPages)
		if write {
			d = workloads.SeqWrite(sp, base, sc.SeqPages)
		} else {
			d = workloads.SeqRead(sp, base, sc.SeqPages)
		}
	})
	eng.Run()
	leg.collect(fmt.Sprintf("ext5/seq-%s/%s", name, modeLabel(leg.Batch)), sys)
	row.Elapsed = d
	gbs := stats.GBps(float64(sc.SeqPages*4096) / d.Seconds())
	if write {
		row.WriteGBs = gbs
	} else {
		row.ReadGBs = gbs
	}
	var tx int64
	for _, l := range sys.Links {
		tx += l.TxBytes.N
	}
	row.CleanGBs = stats.GBps(float64(tx) / d.Seconds())
	fillBatchStats(&row, sys)
	return row
}

// ext5KMeans is the k-means leg: strided numeric scans whose prefetch
// windows batch well.
func ext5KMeans(leg *Run) BatchRow {
	row := BatchRow{Workload: "k-means 12.5%", Batched: leg.Batch}
	cfg := workloads.DefaultKMeans(leg.Scale.KMeansPoints)
	pb, ab, db := workloads.KMeansLayout(cfg)
	wsPages := (pb + ab + db) / 4096
	eng := sim.New()
	sys := leg.dilos(eng, wsPages, 0.125, prefetch.NewReadahead(0), nil, nil, false)
	sys.Launch("kmeans", 0, func(sp *core.DDCProc) {
		base, _ := sys.MmapDDC(wsPages + 16)
		workloads.KMeansInit(sp, base, cfg)
		row.Elapsed, _ = workloads.KMeans(sp, base, base+pb, base+pb+ab, cfg)
	})
	eng.Run()
	leg.collect("ext5/kmeans/"+modeLabel(leg.Batch), sys)
	fillBatchStats(&row, sys)
	return row
}

// ext5Redis is the Redis GET leg over the paper's mixed value sizes.
func ext5Redis(leg *Run) BatchRow {
	row := BatchRow{Workload: "redis GET mixed 12.5%", Batched: leg.Batch}
	sizeOf := redis.SizeMixed()
	nKeys, queries := leg.Scale.RedisKeysMix, leg.Scale.RedisQueries/4
	var totalBytes uint64
	for i := 0; i < nKeys; i++ {
		totalBytes += uint64(sizeOf(i)) + 64
	}
	wsPages := totalBytes / 4096
	eng := sim.New()
	sys := leg.dilos(eng, wsPages, 0.125, prefetch.NewReadahead(0), nil, nil, false)
	sys.Launch("redis", 0, func(sp *core.DDCProc) {
		srv := redis.NewServer(sp)
		redis.PopulateGET(srv, nKeys, sizeOf)
		res := redis.RunGET(sp, srv, nKeys, queries, sizeOf, 17)
		row.OpsPerS = res.ThroughputOps()
		row.Elapsed = res.Elapsed
	})
	eng.Run()
	leg.collect("ext5/redis-get-mixed/"+modeLabel(leg.Batch), sys)
	fillBatchStats(&row, sys)
	return row
}

// ExtBatch runs ext5: per-op vs doorbell-batched submission on four
// workloads at 12.5 % local cache. Rows come in (per-op, batched) pairs
// per workload so the printout reads as before/after. Each leg runs under
// a copy of r's options with Batch pinned to the leg's mode.
func ExtBatch(r *Run) []BatchRow {
	perOp, batched := *r, *r
	perOp.Batch, batched.Batch = false, true
	legs := []*Run{&perOp, &batched}
	var rows []BatchRow
	for _, leg := range legs {
		rows = append(rows, ext5Seq(leg, false))
	}
	for _, leg := range legs {
		rows = append(rows, ext5Seq(leg, true))
	}
	for _, leg := range legs {
		rows = append(rows, ext5KMeans(leg))
	}
	for _, leg := range legs {
		rows = append(rows, ext5Redis(leg))
	}
	return rows
}
