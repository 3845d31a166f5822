// Human-readable renderers: one print function per artifact, each
// registered as a registry Entry so cmd/dilosbench stays a thin flag
// parser. Formats mirror the paper's tables, with the published values
// quoted alongside. The single init below registers every classic
// artifact in the paper's order; extensions self-register here too and
// sort by number in Entries().
package experiments

import (
	"fmt"
	"sort"

	"dilos/internal/sim"
	"dilos/internal/stats"
)

func init() {
	Register("fig1", "Fastswap fault-handler latency breakdown", false, Fig1, printFig1)
	Register("fig2", "RDMA latency vs object size", false, func(*Run) []Fig2Row { return Fig2() }, printFig2)
	Register("tab1", "fault counts, sequential read on Fastswap", false, Tab1, printTab1)
	Register("tab2", "sequential read/write throughput (GB/s)", false, Tab2, printTab2)
	Register("fig6", "fault latency breakdown, DiLOS vs Fastswap", false, Fig6, printFig6)
	Register("tab3", "fault counts, sequential read, all systems", false, Tab3, printTab3)
	Register("fig7a", "quicksort completion time", false, Fig7a, printCompletion("Figure 7(a) — quicksort", "s"))
	Register("fig7b", "k-means completion time", false, Fig7b, printCompletion("Figure 7(b) — k-means", "s"))
	Register("fig7c", "snappy compression completion time", false, Fig7c, printCompletion("Figure 7(c) — compression", "ms"))
	Register("fig7d", "snappy decompression completion time", false, Fig7d, printCompletion("Figure 7(d) — decompression", "ms"))
	Register("fig8", "DataFrame NYC-taxi completion time", false, Fig8, printCompletion("Figure 8 — DataFrame (NYC taxi)", "ms"))
	Register("fig9a", "GAPBS PageRank, 4 threads", false, Fig9a, printCompletion("Figure 9(a) — PageRank", "ms"))
	Register("fig9b", "GAPBS betweenness centrality, 4 threads", false, Fig9b, printCompletion("Figure 9(b) — betweenness centrality", "ms"))
	Register("fig10a", "Redis GET throughput, 4 KiB values", false, Fig10a, printRedis("Figure 10(a) — GET 4KiB"))
	Register("fig10b", "Redis GET throughput, 64 KiB values", false, Fig10b, printRedis("Figure 10(b) — GET 64KiB"))
	Register("fig10c", "Redis GET throughput, mixed sizes", false, Fig10c, printRedis("Figure 10(c) — GET mixed"))
	Register("fig10d", "Redis LRANGE_100 throughput", false, Fig10d, printRedis("Figure 10(d) — LRANGE_100"))
	Register("tab4", "Redis tail latency, GET(mixed) + LRANGE", false, Tab4, printTab4)
	Register("fig12", "bandwidth with guided paging, DEL + GET", false, Fig12, printFig12)
	Register("abl1", "ablation: eager vs on-demand reclamation", false, AblationEagerEviction, printAbl1)
	Register("abl2", "ablation: shared-nothing vs shared queues", false, AblationSharedQueue, printAbl2)
	Register("ext1", "extension: sharding across 1/2/4 memory nodes", false, ExtMultiNode, printExt1)
	Register("ext2", "extension: PageRank thread scaling on DiLOS", false, ExtThreadScaling, printExt2)
	Register("ext3", "extension: placement policies across 4 memory nodes", false, ExtPlacement, printExt3)
	Register("ext4", "extension: chaos — node crash, failover, recovery", false, ExtChaos, printExt4)
	Register("ext5", "extension: doorbell-batched vs per-op submission", false, ExtBatch, printExt5)
	Register("ext6", "extension: per-fault latency anatomy from the flight recorder", false, ExtAnatomy, printExt6)
	Register("ext7", "extension: elastic pool — live drain + migration under load", false, ExtElastic, printExt7)
	Register("ext10", "extension: per-core fault-path scaling — sharded vs shared manager", true, ExtScaling, printExt10)
	Register("ext11", "extension: always-on observability plane — overhead + burn-rate detection", false, ExtObs, printExt11)
}

func us(t sim.Time) string { return fmt.Sprintf("%6.2f", t.Micros()) }

func printFig1(rows []BreakdownRow) {
	fmt.Println("Figure 1 — Fastswap page fault handler latency breakdown (µs)")
	fmt.Println("  [paper: average ≈6.2µs total with 46% fetch, 9% exception, 29% reclaim]")
	printBreakdown(rows)
}

func printFig6(rows []BreakdownRow) {
	fmt.Println("Figure 6 — fault latency breakdown, DiLOS vs Fastswap (µs)")
	fmt.Println("  [paper: DiLOS cuts fault latency ≈49%; DiLOS reclaim = 0]")
	printBreakdown(rows)
}

func printBreakdown(rows []BreakdownRow) {
	fmt.Printf("  %-22s %9s %9s %9s %9s %9s %9s\n",
		"", "exception", "software", "fetch", "map", "reclaim", "total")
	for _, r := range rows {
		fmt.Printf("  %-22s %9s %9s %9s %9s %9s %9s\n",
			r.Label, us(r.Exception), us(r.Software), us(r.Fetch), us(r.Map), us(r.Reclaim), us(r.Total))
	}
}

func printFig2(rows []Fig2Row) {
	fmt.Println("Figure 2 — one-sided RDMA latency (µs) per object size")
	fmt.Println("  [paper: 4KiB costs only ≈0.6µs more than 128B]")
	fmt.Printf("  %8s %10s %10s\n", "size", "read", "write")
	for _, r := range rows {
		fmt.Printf("  %8d %10s %10s\n", r.Size, us(r.ReadLat), us(r.WriteLat))
	}
}

func printTab1(r FaultCountRow) {
	fmt.Println("Table 1 — page faults during sequential read on Fastswap")
	fmt.Printf("  [paper: 655,737 major (12.5%%) / 4,587,164 minor (87.5%%) on 20GB]\n")
	printFaultRows([]FaultCountRow{r})
}

func printTab3(rows []FaultCountRow) {
	fmt.Println("Table 3 — page faults during sequential read")
	fmt.Println("  [paper: DiLOS-readahead ≈25% fewer minor faults than Fastswap]")
	printFaultRows(rows)
}

func printFaultRows(rows []FaultCountRow) {
	fmt.Printf("  %-22s %10s %10s %10s %8s\n", "", "major", "minor", "total", "major%")
	for _, r := range rows {
		fmt.Printf("  %-22s %10d %10d %10d %7.1f%%\n",
			r.System, r.Major, r.Minor, r.Total, 100*float64(r.Major)/float64(r.Total))
	}
}

func printTab2(rows []Tab2Row) {
	fmt.Println("Table 2 — sequential read/write throughput (GB/s)")
	fmt.Println("  [paper: Fastswap 0.98/0.49; DiLOS none 1.24/1.14; readahead 3.74/3.49; trend 3.73/3.49]")
	fmt.Printf("  %-22s %8s %8s\n", "", "read", "write")
	for _, r := range rows {
		fmt.Printf("  %-22s %8.2f %8.2f\n", r.System, r.ReadGBs, r.WriteGBs)
	}
}

// printCompletion renders Figures 7–9: system → fraction → time.
func printCompletion(title, unit string) func([]CompletionRow) {
	return func(rows []CompletionRow) {
		fmt.Println(title + " — completion time (lower is better)")
		systems := []SystemKind{}
		seen := map[SystemKind]bool{}
		fracs := []float64{}
		seenF := map[float64]bool{}
		for _, r := range rows {
			if !seen[r.System] {
				seen[r.System] = true
				systems = append(systems, r.System)
			}
			if !seenF[r.Fraction] {
				seenF[r.Fraction] = true
				fracs = append(fracs, r.Fraction)
			}
		}
		sort.Float64s(fracs)
		fmt.Printf("  %-22s", "local memory:")
		for _, f := range fracs {
			fmt.Printf(" %9s", FracLabel(f))
		}
		fmt.Println()
		for _, s := range systems {
			fmt.Printf("  %-22s", s)
			for _, f := range fracs {
				for _, r := range rows {
					if r.System == s && r.Fraction == f {
						switch unit {
						case "s":
							fmt.Printf(" %9.3f", r.Elapsed.Seconds())
						default:
							fmt.Printf(" %9.2f", float64(r.Elapsed)/1e6)
						}
					}
				}
			}
			fmt.Printf("  (%s)\n", unit)
		}
	}
}

// printRedis renders Figure 10: system → fraction → throughput.
func printRedis(title string) func([]RedisRow) {
	return func(rows []RedisRow) {
		fmt.Println(title + " — throughput (ops/s, higher is better)")
		systems := []SystemKind{}
		seen := map[SystemKind]bool{}
		fracs := []float64{}
		seenF := map[float64]bool{}
		for _, r := range rows {
			if !seen[r.System] {
				seen[r.System] = true
				systems = append(systems, r.System)
			}
			if !seenF[r.Fraction] {
				seenF[r.Fraction] = true
				fracs = append(fracs, r.Fraction)
			}
		}
		sort.Float64s(fracs)
		fmt.Printf("  %-22s", "local memory:")
		for _, f := range fracs {
			fmt.Printf(" %10s", FracLabel(f))
		}
		fmt.Println()
		for _, s := range systems {
			fmt.Printf("  %-22s", s)
			for _, f := range fracs {
				for _, r := range rows {
					if r.System == s && r.Fraction == f {
						fmt.Printf(" %10.0f", r.OpsPerS)
					}
				}
			}
			fmt.Println()
		}
	}
}

func printTab4(rows []Tab4Row) {
	fmt.Println("Table 4 — tail latency at 12.5% local memory (µs)")
	fmt.Println("  [paper (ms, 20GB sets): Fastswap GET 10.0/11.0, LRANGE 25.8/34.3;")
	fmt.Println("   DiLOS app-aware GET 3.0/4.0, LRANGE 14.6/18.4]")
	fmt.Printf("  %-22s %12s %12s %12s %12s %12s %12s\n",
		"", "GET p99", "GET p99.9", "LRANGE p99", "LRANGE p99.9", "major p99", "minor p99")
	for _, r := range rows {
		fmt.Printf("  %-22s %12s %12s %12s %12s %12s %12s\n",
			r.System, us(r.GetP99), us(r.GetP999), us(r.LRangeP99), us(r.LRangeP999),
			us(r.MajorFaultP99), us(r.MinorFaultP99))
	}
}

func printFig12(rows []Fig12Row) {
	fmt.Println("Figure 12 — network traffic with guided paging (DEL churn, then GET sweep)")
	fmt.Println("  [paper: guided paging saves 12% on DEL, 29% on GET]")
	fmt.Printf("  %-22s %12s %12s %14s\n", "", "DEL tx (MB)", "GET rx (MB)", "saved (bytes)")
	for _, r := range rows {
		label := "default paging"
		if r.Guided {
			label = "guided paging"
		}
		fmt.Printf("  %-22s %12.2f %12.2f %14d\n", label, r.DelTxMB, r.GetRxMB, r.SavedBytes)
	}
	def, g := rows[0], rows[1]
	fmt.Printf("  reduction: DEL %.0f%%, GET %.0f%%\n",
		100*(1-g.DelTxMB/def.DelTxMB), 100*(1-g.GetRxMB/def.GetRxMB))
	fmt.Println("  rx bandwidth over time (default vs guided):")
	fmt.Printf("    default %s\n", sparkline(def.RxSeries, 64))
	fmt.Printf("    guided  %s\n", sparkline(g.RxSeries, 64))
}

// sparkline renders a bandwidth series as unicode blocks, resampled to
// `width` buckets and normalized across the series.
func sparkline(pts []stats.BandwidthPoint, width int) string {
	if len(pts) == 0 {
		return "(empty)"
	}
	blocks := []rune(" ▁▂▃▄▅▆▇█")
	resampled := make([]float64, width)
	for i, p := range pts {
		resampled[i*width/len(pts)] += p.BytesPerSec
	}
	max := 0.0
	for _, v := range resampled {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return "(idle)"
	}
	out := make([]rune, width)
	for i, v := range resampled {
		idx := int(v / max * float64(len(blocks)-1))
		out[i] = blocks[idx]
	}
	return string(out)
}

func printAbl1(rows []AblationRow) {
	fmt.Println("Ablation — eager background reclamation (§4.4) vs on-demand")
	fmt.Printf("  %-32s %8s %8s %12s\n", "", "read", "write", "alloc waits")
	for _, r := range rows {
		fmt.Printf("  %-32s %8.2f %8.2f %12d\n", r.Label, r.ReadGBs, r.WriteGBs, r.AllocWait)
	}
}

func printAbl2(rows []AblationRow) {
	fmt.Println("Ablation — shared-nothing per-module queues (§4.5) vs one queue per core")
	fmt.Printf("  %-32s %8s %14s\n", "", "write", "fault p99")
	for _, r := range rows {
		fmt.Printf("  %-32s %8.2f %14s\n", r.Label, r.WriteGBs, us(r.FaultP99))
	}
}

func printExt2(rows []ThreadScaleRow) {
	fmt.Println("Extension — PageRank thread scaling on DiLOS, 12.5% local memory")
	fmt.Printf("  %-10s %12s\n", "threads", "time (ms)")
	for _, r := range rows {
		fmt.Printf("  %-10d %12.2f\n", r.Workers, float64(r.Elapsed)/1e6)
	}
}

func printExt1(rows []MultiNodeRow) {
	fmt.Println("Extension — page-striped sharding across memory nodes (§5.1 future work)")
	fmt.Printf("  %-10s %10s   %s\n", "nodes", "read GB/s", "RX GB per node")
	for _, r := range rows {
		fmt.Printf("  %-10d %10.2f   %v\n", r.Nodes, r.ReadGBs, r.PerLink)
	}
}

func printExt3(rows []PlacementRow) {
	fmt.Println("Extension — placement policies, sequential read over 4 memory nodes")
	fmt.Printf("  %-10s %10s %8s   %s\n", "policy", "read GB/s", "spread", "RX GB per node")
	for _, r := range rows {
		fmt.Printf("  %-10s %10.2f %8.2f   %v\n", r.Policy, r.ReadGBs, r.Spread, r.PerLink)
	}
}

func printExt4(r ChaosResult) {
	fmt.Println("Extension — chaos: replicated DiLOS through a memory-node crash")
	fmt.Printf("  [seed %d; node 1 down %.0f–%.0fms; Replicas: 2]\n",
		r.Seed, r.CrashAt.Seconds()*1e3, r.CrashUntil.Seconds()*1e3)
	fmt.Printf("  %d pages over a %.0fms run\n", r.Pages, r.RunFor.Seconds()*1e3)
	if r.RecoveredAt == 0 {
		fmt.Printf("  detected %.3fms after crash; recovery did not complete in the run\n",
			(r.DetectedAt-r.CrashAt).Seconds()*1e3)
	} else {
		fmt.Printf("  detected %.3fms after crash; recovered %.3fms after the node returned\n",
			(r.DetectedAt-r.CrashAt).Seconds()*1e3, (r.RecoveredAt-r.CrashUntil).Seconds()*1e3)
	}
	fmt.Printf("  %-12s %-12s %-12s %-12s\n", "baseline", "outage avg", "outage dip", "recovered")
	fmt.Printf("  %-12.2f %-12.2f %-12.2f %-12.2f  (GB/s touched)\n",
		r.BaselineGBs, r.OutageGBs, r.DipGBs, r.RecoveredGBs)
	fmt.Printf("  injected fails %d, retries %d (timeouts %d, gave up %d)\n",
		r.InjectedFails, r.Retries, r.Timeouts, r.GaveUp)
	fmt.Printf("  replica fetches %d, failed write-backs %d, re-replicated pages %d\n",
		r.ReplicaFetches, r.WriteFails, r.ReReplicated)
	fmt.Printf("  breaker: %d trip(s), %d recovery(ies)\n", r.NodeFails, r.NodeRecoveries)
	fmt.Println("  throughput over time (1ms buckets):")
	fmt.Printf("    %s\n", floatSparkline(r.Series))
}

func printExt5(rows []BatchRow) {
	fmt.Println("Extension — doorbell-batched I/O pipeline (ext5): per-op vs batched submission")
	fmt.Println("  [12.5% local cache; batched = one doorbell per prefetch window / cleaner")
	fmt.Println("   node-batch, contiguous remote offsets coalesced into ≤3-segment vectors]")
	fmt.Printf("  %-22s %-8s %-34s %9s %7s %9s\n",
		"workload", "mode", "result", "doorbells", "ops/db", "coalesced")
	var base BatchRow
	for _, r := range rows {
		var result string
		var cur, ref float64
		switch {
		case r.ReadGBs > 0:
			result = fmt.Sprintf("%.2f GB/s", r.ReadGBs)
			cur, ref = r.ReadGBs, base.ReadGBs
		case r.WriteGBs > 0:
			result = fmt.Sprintf("%.2f GB/s (wb %.2f GB/s)", r.WriteGBs, r.CleanGBs)
			cur, ref = r.WriteGBs, base.WriteGBs
		case r.OpsPerS > 0:
			result = fmt.Sprintf("%.1f kops/s", r.OpsPerS/1e3)
			cur, ref = r.OpsPerS, base.OpsPerS
		default:
			result = fmt.Sprintf("%.2f ms", r.Elapsed.Seconds()*1e3)
			cur, ref = 1/r.Elapsed.Seconds(), 1/base.Elapsed.Seconds()
		}
		mode := "per-op"
		if r.Batched {
			mode = "batched"
			if ref > 0 {
				result += fmt.Sprintf("  %+.1f%%", (cur/ref-1)*100)
			}
		} else {
			base = r
		}
		fmt.Printf("  %-22s %-8s %-34s %9d %7.1f %9d\n",
			r.Workload, mode, result, r.Doorbells, r.MeanBatch, r.Coalesced)
	}
	fmt.Println("  (paper has no batched variant; the per-op rows are the §6 baseline shapes)")
}

func printExt6(rows []Ext6Row) {
	fmt.Println("Extension — per-fault latency anatomy from the flight recorder (µs)")
	fmt.Println("  [sequential write+read sweep; major faults only; stage means sum to the")
	fmt.Println("   total mean. DiLOS never reclaims on the fault path; Fastswap's direct")
	fmt.Println("   reclamation grows as the cache shrinks]")
	stages := []string{"exception", "lookup", "reclaim", "issue", "guide", "wait", "map"}
	lastFrac := -1.0
	for _, r := range rows {
		if r.Fraction != lastFrac {
			lastFrac = r.Fraction
			fmt.Printf("  local memory %s:\n", FracLabel(r.Fraction))
			fmt.Printf("    %-22s %-4s", "system", "")
			for _, st := range stages {
				fmt.Printf(" %9s", st)
			}
			fmt.Printf(" %9s %8s\n", "total", "faults")
		}
		a := r.Anatomy
		fmt.Printf("    %-22s %-4s", r.System, "mean")
		for _, st := range stages {
			fmt.Printf(" %9.2f", float64(a.Stage(st).MeanNs)/1e3)
		}
		fmt.Printf(" %9.2f %8d\n", float64(a.MeanNs)/1e3, a.Faults)
		fmt.Printf("    %-22s %-4s", "", "p99")
		for _, st := range stages {
			fmt.Printf(" %9.2f", float64(a.Stage(st).P99Ns)/1e3)
		}
		fmt.Printf(" %9.2f\n", float64(a.P99Ns)/1e3)
	}
}

func printExt7(r ElasticResult) {
	fmt.Println("Extension — elastic pool: drain a memory node under load (ext7)")
	fmt.Printf("  [3 nodes, Replicas: 2, 12.5%% local cache; node %d drains at 3ms;\n",
		r.Node)
	fmt.Println("   chaos leg crashes the draining node mid-copy (seed -chaos-seed)]")
	fmt.Printf("  %d pages over a %.0fms run\n", r.Pages, r.RunFor.Seconds()*1e3)
	if r.DrainDoneAt == 0 {
		fmt.Println("  drain did not complete in the run")
	} else {
		fmt.Printf("  drain completed in %.2fms: %d pages moved (%d copy restarts, %d stranded retries, %d forwarded)\n",
			(r.DrainDoneAt-r.DrainAt).Seconds()*1e3, r.PagesMoved, r.CopyRestarts, r.Stranded, r.Forwarded)
	}
	fmt.Printf("  %-10s %12s %12s %10s\n", "phase", "fault p50", "fault p99", "GB/s")
	fmt.Printf("  %-10s %12s %12s %10.2f\n", "baseline", us(r.BaselineP50), us(r.BaselineP99), r.BaselineGBs)
	fmt.Printf("  %-10s %12s %12s %10.2f\n", "drain", us(r.DrainP50), us(r.DrainP99), r.DrainGBs)
	fmt.Printf("  %-10s %12s %12s %10.2f\n", "after", "", us(r.AfterP99), r.AfterGBs)
	fmt.Printf("  drain p99 = %.2fx baseline (target ≤ 2x); corruptions: %d (must be 0)\n",
		r.P99Ratio, r.Corruptions)
	if r.ChaosDrainDoneAt == 0 {
		fmt.Printf("  chaos leg: drain pending at run end (node crashed mid-copy; %d breaker trips)\n",
			r.ChaosNodeFails)
	} else {
		fmt.Printf("  chaos leg: crash mid-copy, drain still done at %.2fms (%d moved, %d stranded retries, %d breaker trips)\n",
			r.ChaosDrainDoneAt.Seconds()*1e3, r.ChaosPagesMoved, r.ChaosStranded, r.ChaosNodeFails)
	}
	fmt.Printf("  chaos leg corruptions: %d (must be 0)\n", r.ChaosCorruptions)
	fmt.Println("  throughput over time (1ms buckets):")
	fmt.Printf("    %s\n", floatSparkline(r.Series))
}

func printExt10(r ScalingResult) {
	fmt.Println("Extension — per-core fault-path scaling: sharded vs shared manager (ext10)")
	fmt.Println("  [weak scaling: each core random-writes its own partition at 25% local")
	fmt.Println("   cache, re-dirtying a hot window every iteration; shared = one wide lock")
	fmt.Println("   across every daemon sweep and fault transition, sharded = Shards=cores]")
	fmt.Printf("  %-6s %14s %12s | %14s %12s\n",
		"cores", "shared flt/s", "shared p99", "sharded flt/s", "sharded p99")
	for _, row := range r.Rows {
		fmt.Printf("  %-6d %14.0f %12v | %14.0f %12v\n",
			row.Cores, row.SharedRate, row.SharedP99, row.ShardedRate, row.ShardedP99)
	}
	fmt.Printf("  1->4 core fault-throughput speedup: shared %.2fx, sharded %.2fx\n",
		r.SharedSpeedup, r.ShardedSpeedup)
}

func printExt11(r ObsResult) {
	fmt.Println("Extension — always-on observability plane: overhead + detection (ext11)")
	fmt.Printf("  [tail storm ×30 on 60%% of ops from %.1fms; SLO budget 25µs, target 99%%,\n",
		Ext11TailAt().Seconds()*1e3)
	fmt.Printf("   burn-rate rule 500µs/100µs ×8; detection budget %.0fµs]\n",
		Ext11DetectBudget().Micros())
	fmt.Printf("  seq read 12.5%%: plane off %.2f GB/s, plane on %.2f GB/s (virtual-time delta %+d ns)\n",
		r.OffGBs, r.OnGBs, int64(r.OnElapsed-r.OffElapsed))
	fmt.Printf("  same-seed pages byte-identical: %v (%d bytes rendered, %d journal events, %d spans sampled out)\n",
		r.Deterministic, r.PageBytes, r.JournalEvents, r.SampledOut)
	if r.Detected {
		fmt.Printf("  storm: %d tails injected; alert raised %.0fµs after onset (%d raise edges)\n",
			r.TailsInjected, r.DetectLatency.Micros(), r.StormRaised)
	} else {
		fmt.Println("  storm: alert never fired (FAIL)")
	}
	fmt.Printf("  clean legs raised %d alerts (must be 0)\n", r.CleanAlerts)
}

// floatSparkline renders a plain float series as unicode blocks.
func floatSparkline(vals []float64) string {
	if len(vals) == 0 {
		return "(empty)"
	}
	blocks := []rune(" ▁▂▃▄▅▆▇█")
	max := 0.0
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return "(idle)"
	}
	out := make([]rune, len(vals))
	for i, v := range vals {
		out[i] = blocks[int(v/max*float64(len(blocks)-1))]
	}
	return string(out)
}
