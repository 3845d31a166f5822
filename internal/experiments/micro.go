package experiments

import (
	"dilos/internal/fabric"
	"dilos/internal/memnode"
	"dilos/internal/sim"
	"dilos/internal/stats"
	"dilos/internal/workloads"
)

// This file regenerates the microbenchmark artifacts: Figures 1, 2, 6 and
// Tables 1, 2, 3 (§3.1, §6.1). All but Figure 2 are views of one
// sequential sweep over Scale.SeqPages, so they project seqRun's memoised
// results instead of each simulating its own.

// seqKey names one sequential sweep by every input that changes its
// outcome.
type seqKey struct {
	kind  SystemKind
	frac  float64
	write bool
	pages uint64
	batch bool
	cores int
}

// seqRun runs a sequential read (or write) of Scale.SeqPages on kind at
// cache fraction frac, or returns the result of the identical sweep this
// run already simulated.
func (r *Run) seqRun(kind SystemKind, frac float64, write bool) runResult {
	pages := r.Scale.SeqPages
	key := seqKey{kind, frac, write, pages, r.Batch, r.Cores}
	if res, ok := r.seq[key]; ok {
		return res
	}
	id := "seq-read"
	if write {
		id = "seq-write"
	}
	res := r.runOn(id, kind, pages, frac, func(sp spaceLike, mmap func(uint64) (uint64, error)) {
		base, _ := mmap(pages)
		if write {
			workloads.SeqWrite(sp, base, pages)
		} else {
			workloads.SeqRead(sp, base, pages)
		}
	})
	r.seq[key] = res
	return res
}

// seqKinds are the systems Tables 2 and 3 compare.
var seqKinds = []SystemKind{SysFastswap, SysDiLOSNone, SysDiLOSRA, SysDiLOSTrend}

// BreakdownRow is one bar of Figures 1/6: per-fault mean latency segments.
type BreakdownRow struct {
	Label     string
	Exception sim.Time
	Software  sim.Time // swap mgmt / page alloc (Fastswap) or handler (DiLOS)
	Fetch     sim.Time
	Map       sim.Time
	Reclaim   sim.Time
	Total     sim.Time
}

// seqBreakdown is the fault breakdown of a sequential read, labeled.
func (r *Run) seqBreakdown(label string, kind SystemKind, frac float64) BreakdownRow {
	row := r.seqRun(kind, frac, false).bd
	row.Label = label
	return row
}

// Fig1 reproduces Figure 1: the latency breakdown of Fastswap's page fault
// handler during sequential read — the average case (12.5 % cache, steady
// reclamation) and the no-reclamation case (cache ≥ working set, cold
// faults only).
func Fig1(r *Run) []BreakdownRow {
	return []BreakdownRow{
		r.seqBreakdown("Average", SysFastswap, 0.125),
		// 1.5x headroom: with cache == working set exactly, the tail of a
		// cold sweep still dips below the watermarks.
		r.seqBreakdown("No reclamation", SysFastswap, 1.5),
	}
}

// Fig2Row is one point of Figure 2: RDMA latency per object size.
type Fig2Row struct {
	Size     int
	ReadLat  sim.Time
	WriteLat sim.Time
}

// Fig2 reproduces Figure 2: one-sided RDMA latency across object sizes.
func Fig2() []Fig2Row {
	node := memnode.New(64<<20, 1)
	link := fabric.NewLink(node, fabric.DefaultParams())
	qp := link.MustQP("fig2", 1)
	off, _ := node.AllocRange(8)
	var rows []Fig2Row
	t := sim.Time(0)
	for size := 64; size <= 16384; size *= 2 {
		buf := make([]byte, size)
		t += sim.Second // keep the link idle between samples
		r := qp.Read(t, off, buf)
		t += sim.Second
		w := qp.Write(t, off, buf)
		rows = append(rows, Fig2Row{
			Size:     size,
			ReadLat:  r.CompleteAt - r.IssuedAt,
			WriteLat: w.CompleteAt - w.IssuedAt,
		})
	}
	return rows
}

// FaultCountRow is one row of Tables 1 and 3.
type FaultCountRow struct {
	System SystemKind
	Major  int64
	Minor  int64
	Total  int64
}

// seqFaults is the fault count row of a sequential read at 12.5 % cache.
func (r *Run) seqFaults(kind SystemKind) FaultCountRow {
	res := r.seqRun(kind, 0.125, false)
	return FaultCountRow{System: kind, Major: res.major, Minor: res.minor, Total: res.major + res.minor}
}

// Tab1 reproduces Table 1: page fault counts during a sequential read on
// Fastswap with 12.5 % local cache.
func Tab1(r *Run) FaultCountRow { return r.seqFaults(SysFastswap) }

// Tab3 reproduces Table 3: fault counts for Fastswap and the DiLOS
// prefetcher flavours on the same sequential read.
func Tab3(r *Run) []FaultCountRow {
	var rows []FaultCountRow
	for _, kind := range seqKinds {
		rows = append(rows, r.seqFaults(kind))
	}
	return rows
}

// Tab2Row is one row of Table 2.
type Tab2Row struct {
	System   SystemKind
	ReadGBs  float64
	WriteGBs float64
}

// Tab2 reproduces Table 2: sequential read and write throughput at 12.5 %
// local cache.
func Tab2(r *Run) []Tab2Row {
	gbps := func(d sim.Time) float64 {
		return stats.GBps(float64(r.Scale.SeqPages*4096) / d.Seconds())
	}
	var rows []Tab2Row
	for _, kind := range seqKinds {
		rd := r.seqRun(kind, 0.125, false).elapsed
		wr := r.seqRun(kind, 0.125, true).elapsed
		rows = append(rows, Tab2Row{System: kind, ReadGBs: gbps(rd), WriteGBs: gbps(wr)})
	}
	return rows
}

// Fig6 reproduces Figure 6: fault-handler latency breakdown, DiLOS vs
// Fastswap (both without prefetching), plus Fastswap without reclamation.
func Fig6(r *Run) []BreakdownRow {
	rows := Fig1(r) // Fastswap average + no-reclamation
	rows[0].Label = "Fastswap"
	rows[1].Label = "Fastswap (no reclaim)"
	return append(rows, r.seqBreakdown("DiLOS", SysDiLOSNone, 0.125))
}
