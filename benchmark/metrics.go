package main

import (
	"fmt"
	"slices"
)

// Workload names, in the order they run.
const (
	wFaultStorm = "fault_storm"
	wScanRW     = "scan_rw"
	wWireRead4K = "wire_read4k"
	wWireMixed  = "wire_mixed"
	wPaperSuite = "paper_suite"
)

var workloadOrder = []string{wFaultStorm, wScanRW, wWireRead4K, wWireMixed, wPaperSuite}

var (
	onSim      = []string{wFaultStorm, wScanRW}
	onWire     = []string{wWireRead4K, wWireMixed}
	onSuite    = []string{wPaperSuite}
	onSimSuite = []string{wFaultStorm, wScanRW, wPaperSuite}
	onNotSuite = []string{wFaultStorm, wScanRW, wWireRead4K, wWireMixed}
)

// Metric kinds. An end-to-end metric is defined on every workload and is
// listed under end_to_end in BENCHMARK.json, where the driver bounds it. A
// gated metric is an end-to-end metric of some workloads only (a virtual
// clock exists only in the simulator, a wire only on the wire workloads);
// the driver's contract has no place for those among end_to_end, so they
// are listed with the per-layer metrics and -compare enforces their bounds.
const (
	kindE2E   = "end_to_end"
	kindGated = "gated"
	kindLayer = "per_layer"
)

// metricDef declares one metric: the single place its name, unit,
// direction, regression bound and applicability are written down.
// BENCHMARK.json repeats the first four for the driver; the self-test
// checks the two agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Kind   string
	// Rel is the regression bound as a share of the baseline median; Abs is
	// a floor on that bound in the metric's own unit (a 30 % bound on a
	// 50 ms set-up would flag scheduler noise). Exact marks deterministic
	// virtual-time metrics: any difference at all is reported.
	Rel, Abs float64
	Exact    bool
	On       []string // workloads it applies to; nil means all
}

func (m metricDef) appliesTo(workload string) bool {
	return m.On == nil || slices.Contains(m.On, workload)
}

var stageNames = []string{"exception", "lookup", "reclaim", "issue", "guide", "wait", "wake", "map"}

var mixClasses = []string{"read4k", "write4k", "read128", "readv3", "writev3"}

var suiteIDs = []string{"fig2", "tab2", "fig6", "tab3", "fig10a", "fig10d", "fig12", "ext5", "ext12"}

// metricTable is every metric the benchmark reports.
var metricTable = buildMetricTable()

func buildMetricTable() []metricDef {
	t := []metricDef{
		// End to end, every workload. Host clock throughout.
		{Name: "setup_s", Unit: "s", Better: "lower", Kind: kindE2E, Rel: 0.25, Abs: 0.25},  // wall time before the first timed op (boot, mmap, write-warm, listen, dial, pattern write, build); median of the run's set-ups
		{Name: "host_ops_per_s", Unit: "ops/s", Better: "higher", Kind: kindE2E, Rel: 0.10}, // ops ÷ wall seconds of the timed window, median over repetitions
		{Name: "cpu_ns_per_op", Unit: "ns", Better: "lower", Kind: kindE2E, Rel: 0.10},      // getrusage user+sys delta ÷ ops; the child's rusage on paper_suite
		{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Kind: kindE2E, Rel: 0.25},       // resident-set high-water mark after the untraced repetitions; the largest child on paper_suite
		{Name: "wall_lat_p50_us", Unit: "us", Better: "lower", Kind: kindE2E, Rel: 0.10},    // host time one op keeps its closed-loop caller waiting, median: depth-1 RTT on wire_*, per-op time over 32-op blocks on the sim workloads, CLI wall ÷ ids on paper_suite
		{Name: "wall_lat_p99_us", Unit: "us", Better: "lower", Kind: kindE2E, Rel: 0.25},    // same samples pooled over the repetitions, p99 (the slowest run on paper_suite)

		// End to end, some workloads only.
		{Name: "virt_ops_per_s", Unit: "ops/s", Better: "higher", Kind: kindGated, Rel: 0.01, Exact: true, On: onSim},   // ops ÷ virtual seconds of the op loop; deterministic
		{Name: "virt_lat_p50_us", Unit: "us", Better: "lower", Kind: kindGated, Rel: 0.01, Exact: true, On: onSim},      // dilos.fault_latency p50 from the stats registry (virtual clock)
		{Name: "virt_lat_p99_us", Unit: "us", Better: "lower", Kind: kindGated, Rel: 0.01, Exact: true, On: onSim},      // dilos.fault_latency p99 (virtual clock)
		{Name: "goodput_mb_s", Unit: "MB/s", Better: "higher", Kind: kindGated, Rel: 0.10, On: onWire},                  // payload bytes (no headers, no resends) ÷ wall seconds of the windowed phase
		{Name: "model_err_pct", Unit: "%", Better: "lower", Kind: kindGated, Abs: 0.5, Exact: true, On: onSuite},        // mean absolute % error against ten paper values held back from calibration (Table 2 cells, Fig. 6 totals)
		{Name: "virt_speedup_x", Unit: "x", Better: "higher", Kind: kindGated, Rel: 0.01, Exact: true, On: onSuite},     // geomean DiLOS ÷ Fastswap virtual-time throughput over four headline cells
		{Name: "allocs_per_op", Unit: "allocs", Better: "lower", Kind: kindGated, Rel: 0.05, Abs: 0.25, On: onNotSuite}, // runtime.MemStats.Mallocs delta ÷ ops
		{Name: "failed_ops_pct", Unit: "%", Better: "lower", Kind: kindGated},                                           // failed ÷ attempted ops: wrong bytes, transport error, non-zero exit, or a repetition whose digest differs

		// sim
		{Name: "sim.switch_ns", Unit: "ns", Better: "lower", On: onSimSuite},  // probe: two procs ping-pong Sleep, per switch
		{Name: "sim.advance_ns", Unit: "ns", Better: "lower", On: onSimSuite}, // probe: Proc.Advance
		{Name: "sim.spawn_ns", Unit: "ns", Better: "lower", On: onSimSuite},   // probe: Engine.Go and run the proc to exit
		{Name: "sim.slowdown_x", Unit: "x", Better: "lower", On: onSim},       // host ns per virtual ns over the op loop
		{Name: "sim.host_share_pct", Unit: "%", Better: "lower"},              // CPU profile share

		// runtime pseudo-layer
		{Name: "runtime.sched_share_pct", Unit: "%", Better: "lower"},                   // chan/park/schedule/futex share
		{Name: "runtime.gc_share_pct", Unit: "%", Better: "lower"},                      // GC and allocator share
		{Name: "runtime.memmove_share_pct", Unit: "%", Better: "lower"},                 // memmove/memclr share
		{Name: "runtime.syscall_share_pct", Unit: "%", Better: "lower"},                 // syscall and netpoll share
		{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", On: onNotSuite},     // GC cycles per repetition
		{Name: "runtime.heap_bytes_per_op", Unit: "B", Better: "lower", On: onNotSuite}, // TotalAlloc delta ÷ ops
		{Name: "runtime.nvcsw_per_op", Unit: "count", Better: "lower"},                  // voluntary context switches ÷ ops
		{Name: "runtime.nivcsw_per_op", Unit: "count", Better: "lower"},                 // involuntary context switches ÷ ops: the noise indicator

		// pagetable, mmu, dram
		{Name: "pagetable.lookup_ns", Unit: "ns", Better: "lower", On: onSimSuite},     // probe: Lookup in a sparse populated table
		{Name: "pagetable.transition_ns", Unit: "ns", Better: "lower", On: onSimSuite}, // probe: one TryTransition of the remote→fetching→local→remote cycle
		{Name: "pagetable.host_share_pct", Unit: "%", Better: "lower"},                 // CPU profile share
		{Name: "mmu.hit_load_ns", Unit: "ns", Better: "lower", On: onSimSuite},         // probe: DDCProc.LoadU64 over a resident region
		{Name: "mmu.host_share_pct", Unit: "%", Better: "lower"},                       // CPU profile share
		{Name: "dram.alloc_free_ns", Unit: "ns", Better: "lower", On: onSimSuite},      // probe: Pool.Alloc + Pool.Free
		{Name: "dram.host_share_pct", Unit: "%", Better: "lower"},                      // CPU profile share (the clock-list walk lands here)

		// pagemgr
		{Name: "pagemgr.evicted_per_op", Unit: "count", Better: "lower", On: onSim},     // registry delta ÷ ops
		{Name: "pagemgr.cleaned_per_op", Unit: "count", Better: "lower", On: onSim},     // registry delta ÷ ops
		{Name: "pagemgr.sync_writes_per_op", Unit: "count", Better: "lower", On: onSim}, // registry delta ÷ ops
		{Name: "pagemgr.alloc_waits_per_op", Unit: "count", Better: "lower", On: onSim}, // fault path blocked on reclaim; the paper says 0
		{Name: "pagemgr.steals_per_op", Unit: "count", Better: "lower", On: onSim},      // registry delta ÷ ops
		{Name: "pagemgr.host_share_pct", Unit: "%", Better: "lower"},                    // CPU profile share

		// prefetch
		{Name: "prefetch.issued_per_op", Unit: "count", Better: "lower", On: onSim},         // dilos.prefetches delta ÷ ops
		{Name: "prefetch.coverage_pct", Unit: "%", Better: "higher", On: []string{wScanRW}}, // 100·(1 − major ÷ touches)
		{Name: "prefetch.waste_pct", Unit: "%", Better: "lower", On: []string{wScanRW}},     // 100·(issued − (touches − major)) ÷ issued, floored at 0
		{Name: "prefetch.host_share_pct", Unit: "%", Better: "lower"},                       // CPU profile share

		// fabric, comm
		{Name: "fabric.read4k_virt_us", Unit: "us", Better: "lower", On: onSimSuite},    // probe: virtual latency of a 4 KiB READ
		{Name: "fabric.calib_err_pct", Unit: "%", Better: "lower", On: onSimSuite},      // probe: Fig. 2's 4 KiB − 128 B delta against the paper's 0.6 us
		{Name: "fabric.read_ns", Unit: "ns", Better: "lower", On: onSimSuite},           // probe: host time of one 4 KiB QP.Read
		{Name: "fabric.submit_ns_per_req", Unit: "ns", Better: "lower", On: onSimSuite}, // probe: QP.Submit of 8 requests, per request
		{Name: "fabric.doorbells_per_op", Unit: "count", Better: "lower", On: onSim},    // unbatched ops plus batch doorbells ÷ ops
		{Name: "fabric.rx_bytes_per_op", Unit: "B", Better: "lower", On: onSim},         // link rx bytes ÷ ops
		{Name: "fabric.tx_bytes_per_op", Unit: "B", Better: "lower", On: onSim},         // link tx bytes ÷ ops
		{Name: "fabric.host_share_pct", Unit: "%", Better: "lower"},                     // CPU profile share
		{Name: "comm.host_share_pct", Unit: "%", Better: "lower"},                       // CPU profile share

		// memnode
		{Name: "memnode.read4k_ns", Unit: "ns", Better: "lower"},     // probe: Node.ReadAt of 4 KiB
		{Name: "memnode.write4k_ns", Unit: "ns", Better: "lower"},    // probe: Node.WriteAt of 4 KiB
		{Name: "memnode.host_share_pct", Unit: "%", Better: "lower"}, // CPU profile share

		// core
		{Name: "core.major_per_op", Unit: "count", Better: "lower", On: onSim}, // dilos.major_faults delta ÷ ops
		{Name: "core.minor_per_op", Unit: "count", Better: "lower", On: onSim}, // dilos.minor_faults delta ÷ ops
	}
	for _, st := range stageNames {
		t = append(t, metricDef{Name: "core.virt_stage_ns." + st, Unit: "ns", Better: "lower", On: onSim}) // mean virtual ns of this stage per major fault (telemetry.FaultAnatomy, traced repetition)
	}
	t = append(t,
		metricDef{Name: "core.host_share_pct", Unit: "%", Better: "lower"},      // CPU profile share
		metricDef{Name: "workload.host_share_pct", Unit: "%", Better: "lower"},  // application code and the benchmark's own generation and checking
		metricDef{Name: "baselines.host_share_pct", Unit: "%", Better: "lower"}, // the comparison systems (fastswap, aifm)

		// transport
		metricDef{Name: "transport.client.submit_ns", Unit: "ns", Better: "lower", On: onWire},        // median time inside AsyncRead/AsyncWrite, sampled requests
		metricDef{Name: "transport.client.wait_ns", Unit: "ns", Better: "lower", On: onWire},          // median time inside Pending.Wait, sampled requests
		metricDef{Name: "transport.client.inflight_peak", Unit: "count", Better: "lower", On: onWire}, // ClientStats.InflightPeak
		metricDef{Name: "transport.client.retries", Unit: "count", Better: "lower", On: onWire},       // ClientStats.Retries delta
		metricDef{Name: "transport.client.timeouts", Unit: "count", Better: "lower", On: onWire},      // ClientStats.Timeouts delta
		metricDef{Name: "transport.exec_ns", Unit: "ns", Better: "lower", On: onWire},                 // probe: the same op mix straight into memnode
		metricDef{Name: "transport.loopback_floor_us", Unit: "us", Better: "lower", On: onWire},       // probe: bare net.Conn echo RTT of same-sized frames
		metricDef{Name: "transport.loopback_floor_mb_s", Unit: "MB/s", Better: "higher", On: onWire},  // probe: bare net.Conn pipelined payload rate
		metricDef{Name: "transport.overhead_us", Unit: "us", Better: "lower", On: onWire},             // depth-1 p50 − loopback floor − exec
		metricDef{Name: "transport.efficiency_pct", Unit: "%", Better: "higher", On: onWire},          // goodput ÷ loopback floor MB/s
		metricDef{Name: "transport.lo_packets_per_req", Unit: "count", Better: "lower", On: onWire},   // /proc/net/dev lo packets ÷ requests
		metricDef{Name: "transport.lo_bytes_per_req", Unit: "B", Better: "lower", On: onWire},         // /proc/net/dev lo bytes ÷ requests
		metricDef{Name: "transport.client_share_pct", Unit: "%", Better: "lower"},                     // CPU profile share, client receivers
		metricDef{Name: "transport.server_share_pct", Unit: "%", Better: "lower"},                     // CPU profile share, server receivers
	)
	for _, c := range mixClasses {
		t = append(t, metricDef{Name: "transport.rtt_p50_us." + c, Unit: "us", Better: "lower", On: []string{wWireMixed}}) // depth-1 RTT median of this op class
	}
	for _, id := range suiteIDs {
		t = append(t, metricDef{Name: "experiments.wall_s." + id, Unit: "s", Better: "lower", On: onSuite}) // wall seconds of the CLI regenerating this id alone (traced pass)
	}
	t = append(t,
		metricDef{Name: "experiments.cpu_per_wall", Unit: "x", Better: "higher", On: onSuite}, // CPU seconds ÷ wall seconds of the CLI run
		metricDef{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},               // traced repetition against the untraced median, per op
		metricDef{Name: "bench.noise_pct", Unit: "%", Better: "lower"},                        // IQR ÷ median of host_ops_per_s over the repetitions
		metricDef{Name: "bench.unattributed_pct", Unit: "%", Better: "lower"},                 // CPU profile samples in no named layer
	)
	for i := range t {
		if t[i].Kind == "" {
			t[i].Kind = kindLayer
		}
	}
	return t
}

func metricByName(name string) (metricDef, bool) {
	for _, m := range metricTable {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// metricSet is what one workload run measured, keyed by metric name.
type metricSet map[string]sample

// set records a single value with n observations behind it.
func (ms metricSet) set(name string, v float64, n int) {
	ms[name] = sample{Value: v, Unit: unitOf(name), Q1: v, Q3: v, N: n}
}

// setReps records the median and quartiles of per-repetition values.
func (ms metricSet) setReps(name string, perRep []float64) {
	q1, med, q3 := quartiles(perRep)
	ms[name] = sample{Value: med, Unit: unitOf(name), Q1: q1, Q3: q3, N: len(perRep)}
}

func unitOf(name string) string {
	m, ok := metricByName(name)
	if !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not in the metric table", name))
	}
	return m.Unit
}
