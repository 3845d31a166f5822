// Command ddcrun runs a named workload on a chosen paging backend with a
// chosen local-memory fraction and prefetcher — the interactive companion
// to dilosbench for exploring individual configurations.
//
// Usage:
//
//	ddcrun -workload seqread -system dilos -prefetch readahead -cache 0.125
//	ddcrun -workload quicksort -system fastswap -cache 0.25
//	ddcrun -workload redis-get -system dilos -prefetch app-aware
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"dilos/internal/chaos"
	"dilos/internal/core"
	"dilos/internal/fabric"
	"dilos/internal/fastswap"
	"dilos/internal/migrate"
	"dilos/internal/obs"
	"dilos/internal/placement"
	"dilos/internal/prefetch"
	"dilos/internal/redis"
	"dilos/internal/sim"
	"dilos/internal/space"
	"dilos/internal/stats"
	"dilos/internal/telemetry"
	"dilos/internal/workloads"
)

// writeMemProfile dumps a heap profile for -memprofile (after a GC, so the
// profile reflects live simulator state rather than garbage).
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

// parseDrainSpec parses -migrate-drain: "NODE" or "NODE@WHEN", e.g. "2" or
// "2@5ms". WHEN is virtual time from the start of the run; it defaults to
// 1ms so the cache is warm before the evacuation starts.
func parseDrainSpec(spec string) (node int, at sim.Time, err error) {
	at = sim.Millisecond
	nodePart := spec
	if i := strings.IndexByte(spec, '@'); i >= 0 {
		nodePart = spec[:i]
		d, err := time.ParseDuration(spec[i+1:])
		if err != nil {
			return 0, 0, fmt.Errorf("-migrate-drain %q: %v", spec, err)
		}
		at = sim.Time(d.Nanoseconds())
	}
	node, err = strconv.Atoi(nodePart)
	if err != nil || node < 0 {
		return 0, 0, fmt.Errorf("-migrate-drain %q: want NODE or NODE@WHEN (e.g. 2@5ms)", spec)
	}
	return node, at, nil
}

func main() {
	workload := flag.String("workload", "seqread",
		"seqread | seqwrite | quicksort | kmeans | redis-get | redis-lrange")
	system := flag.String("system", "dilos", "dilos | fastswap")
	pf := flag.String("prefetch", "readahead", "none | readahead | trend | leap | app-aware (dilos only)")
	cache := flag.Float64("cache", 0.125, "local memory as a fraction of the working set")
	pages := flag.Uint64("pages", 16384, "working-set pages for seq workloads")
	nodes := flag.Int("nodes", 1, "memory node count (dilos only)")
	replicas := flag.Int("replicas", 1, "replicas per page, up to -nodes (dilos only)")
	policyName := flag.String("placement", "striped",
		"page placement policy: striped | blocked | hashed (dilos only)")
	dumpStats := flag.Bool("stats", false, "dump the full stats snapshot as JSON after the run")
	chaosProfile := flag.String("chaos-profile", "none",
		"fault injection profile: none | flaky | tail | crash (dilos only)")
	chaosSeed := flag.Uint64("chaos-seed", 42,
		"seed for deterministic fault injection (same seed ⇒ identical faults)")
	traceOut := flag.String("trace-out", "",
		"record a flight-recorder trace and write it as Perfetto/Chrome JSON to this file")
	metricsAddr := flag.String("metrics-addr", "",
		"serve /metrics, /statusz, /journalz, /healthz on this address while the run executes (dilos only; pages refresh every 1ms of virtual time and hold the final state after the run)")
	journalOut := flag.String("journal-out", "",
		"write the control-plane event journal (drains, breaker trips, steals, SLO alerts) as JSON lines to this file (dilos only; feed it to tracetool events)")
	sampleInterval := flag.Duration("sample-interval", 50*time.Microsecond,
		"virtual-time gauge sampling interval for -trace-out counter tracks (0 disables them)")
	batch := flag.Bool("batch", false,
		"doorbell-batched submission on the prefetch and cleaner paths (dilos only)")
	coresSpec := flag.String("cores", "",
		"comma list of core counts (e.g. 1,2,4): repeat the run once per setting with the sharded page manager at that core count, one report/stats block per setting (dilos boots Shards=N; empty = 4 cores, legacy manager)")
	wideLocks := flag.Bool("wide-locks", false,
		"with -cores: boot the shared-structure wide-lock baseline instead of the sharded manager (dilos only)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the simulator itself to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	drainSpec := flag.String("migrate-drain", "",
		"live-drain a memory node mid-run: NODE or NODE@WHEN, e.g. 2@5ms (dilos only; arms the migration engine)")
	watermark := flag.Float64("migrate-watermark", 0,
		"imbalance watermark (0-1) for continuous auto-rebalancing, 0 = off (dilos only; arms the migration engine)")
	realNodes := flag.Int("real-nodes", 0,
		"ext9 real-process mode: spawn N memnoded daemons, kill -9 one mid-run, verify against a host shadow (0 = off; ignores the simulator flags)")
	realReplicas := flag.Int("real-replicas", 2, "replicas per page in -real-nodes mode")
	realPages := flag.Int("real-pages", 512, "working-set pages in -real-nodes mode")
	realWorkers := flag.Int("real-workers", 4, "driver workers in -real-nodes mode")
	realDeadline := flag.Duration("real-deadline", 500*time.Millisecond,
		"per-request budget in -real-nodes mode (the stall bound)")
	realBaseline := flag.Duration("real-baseline", time.Second, "healthy phase before the kill")
	realOutage := flag.Duration("real-outage", 1200*time.Millisecond, "kill -9 .. restart window")
	realRecovery := flag.Duration("real-recovery", time.Second, "post-restart observation phase")
	realMemnoded := flag.String("real-memnoded", "",
		"path to a built memnoded binary (default: go build it into a temp dir)")
	flag.Parse()

	if *realNodes > 0 {
		os.Exit(runRealChaos(realChaosFlags{
			nodes: *realNodes, replicas: *realReplicas, pages: *realPages,
			workers: *realWorkers, deadline: *realDeadline,
			baseline: *realBaseline, outage: *realOutage, recovery: *realRecovery,
			memnoded: *realMemnoded, dumpStats: *dumpStats,
		}))
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memprofile)

	policy, err := placement.ParsePolicy(*policyName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	chaosCfg, err := chaos.ParseProfile(*chaosProfile, *chaosSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	chaosOn := *chaosProfile != "" && *chaosProfile != "none"
	migrateOn := *drainSpec != "" || *watermark > 0
	obsOn := *metricsAddr != "" || *journalOut != ""
	if *system != "dilos" && (*nodes != 1 || *replicas != 1 || *policyName != "striped" || chaosOn || migrateOn || obsOn) {
		fmt.Fprintf(os.Stderr, "-nodes/-replicas/-placement/-chaos-profile/-migrate-*/-metrics-addr/-journal-out require -system dilos\n")
		os.Exit(2)
	}
	// The HTTP sink binds once and survives the -cores sweep; each run
	// re-publishes into it.
	var obsSink *obs.Server
	if *metricsAddr != "" {
		obsSink = obs.NewServer()
		addr, err := obsSink.ListenAndServe(*metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("obs: serving /metrics on http://%s/\n", addr)
	}
	if *watermark < 0 || *watermark > 1 {
		fmt.Fprintf(os.Stderr, "-migrate-watermark must be in [0,1], got %g\n", *watermark)
		os.Exit(2)
	}
	drainNode, drainAt := -1, sim.Time(0)
	if *drainSpec != "" {
		var err error
		drainNode, drainAt, err = parseDrainSpec(*drainSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if drainNode >= *nodes {
			fmt.Fprintf(os.Stderr, "-migrate-drain node %d out of range; raise -nodes (%d)\n", drainNode, *nodes)
			os.Exit(2)
		}
		if *nodes < 2 {
			fmt.Fprintln(os.Stderr, "-migrate-drain needs at least -nodes 2: the pages must have somewhere to go")
			os.Exit(2)
		}
	}
	if chaosOn {
		for _, w := range chaosCfg.Crashes {
			if w.Node >= *nodes {
				fmt.Fprintf(os.Stderr, "profile %q crashes node %d; raise -nodes (and use -replicas 2 to survive it)\n",
					*chaosProfile, w.Node)
				os.Exit(2)
			}
		}
	}
	if *nodes < 1 || *replicas < 1 || *replicas > *nodes {
		fmt.Fprintf(os.Stderr, "-replicas must be between 1 and -nodes (%d)\n", *nodes)
		os.Exit(2)
	}
	coresList := []int{0} // 0 = the 4-core default with the legacy manager
	if *coresSpec != "" {
		coresList = coresList[:0]
		for _, f := range strings.Split(*coresSpec, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "-cores wants a comma list of positive core counts, got %q\n", *coresSpec)
				os.Exit(2)
			}
			coresList = append(coresList, n)
		}
	}
	if *wideLocks && *coresSpec == "" {
		fmt.Fprintln(os.Stderr, "-wide-locks needs -cores")
		os.Exit(2)
	}

	runOnce := func(coreN int) {
		var prefetcher prefetch.Prefetcher
		switch *pf {
		case "none", "app-aware":
		case "readahead":
			prefetcher = prefetch.NewReadahead(0)
		case "trend":
			prefetcher = prefetch.NewTrend()
		case "leap":
			prefetcher = prefetch.NewLeap()
		default:
			fmt.Fprintf(os.Stderr, "unknown prefetcher %q\n", *pf)
			os.Exit(2)
		}

		eng := sim.New()
		frames := int(float64(*pages) * *cache)
		if frames < 96 {
			frames = 96
		}
		remote := *pages*4096 + (128 << 20)

		var launch func(fn func(sp space.Space, mmap func(uint64) (uint64, error)))
		var report func()
		var obsFinish func()
		var registry *stats.Registry
		var rec *telemetry.Recorder
		var sampleEvery sim.Time
		var telOf func() (*telemetry.Recorder, *telemetry.Sampler)
		if *traceOut != "" {
			rec = telemetry.NewRecorder(0)
			sampleEvery = sim.Time((*sampleInterval).Nanoseconds())
		}

		var guide *redis.AppGuide
		if *pf == "app-aware" {
			guide = redis.NewAppGuide()
		}
		switch *system {
		case "dilos":
			coreCount := 4
			if coreN > 0 {
				coreCount = coreN
			}
			cfg := core.Config{
				CacheFrames: frames, Cores: coreCount, RemoteBytes: remote,
				Fabric: fabric.DefaultParams(), Prefetcher: prefetcher,
				MemNodes: *nodes, Replicas: *replicas, Placement: policy,
				Batch: *batch,
				Tel:   rec, SampleEvery: sampleEvery,
			}
			if coreN > 0 {
				if *wideLocks {
					cfg.Shards, cfg.WideLocks = 1, true
				} else {
					cfg.Shards = coreN
				}
			}
			if chaosOn {
				cfg.Chaos = chaos.NewInjector(chaosCfg)
			}
			if migrateOn {
				cfg.Migrate = &migrate.Tuning{Watermark: *watermark}
			}
			var pl *obs.Plane
			if obsOn {
				pl = obs.NewPlane()
				// µs-scale objective so short interactive runs (and the tail
				// chaos profile) exercise the burn-rate alerts: 99% of faults
				// within 25µs, one 500µs/100µs ×8 rule.
				pl.Objective = obs.Objective{
					Budget: 25 * sim.Microsecond,
					Target: 0.99,
					Rules:  []obs.BurnRule{{Long: 500 * sim.Microsecond, Short: 100 * sim.Microsecond, MaxBurn: 8}},
				}
				pl.Sink = obsSink
				cfg.Obs = pl
			}
			sys := core.New(eng, cfg)
			if guide != nil {
				sys.AttachGuide(guide)
			}
			sys.Start()
			if drainNode >= 0 {
				// A plain proc (not a daemon) so the engine stays alive until the
				// evacuation finishes even if the workload completes first; the
				// cutoff bounds the run if the drain can never converge.
				eng.Go("drain-driver", func(p *sim.Proc) {
					p.Sleep(drainAt)
					if err := sys.Drain(drainNode); err != nil {
						fmt.Fprintf(os.Stderr, "drain: %v\n", err)
						return
					}
					cutoff := drainAt + 500*sim.Millisecond
					for p.Now() < cutoff {
						if sys.Space().State(drainNode) == placement.Removed {
							fmt.Printf("drain: node %d removed at %v (%d pages moved)\n",
								drainNode, p.Now(), sys.Mig.PagesMoved.N)
							return
						}
						p.Sleep(100 * sim.Microsecond)
					}
					fmt.Fprintf(os.Stderr, "drain: node %d not removed by %v (occupancy %d)\n",
						drainNode, cutoff, sys.Space().Occupancy(drainNode))
				})
			}
			registry = sys.Registry()
			telOf = sys.Telemetry
			if pl != nil {
				obsFinish = func() {
					if pl.Sink != nil {
						// Final render so scrapes after the run see end state.
						pl.Sink.PublishMetrics(obs.AppendMetrics(nil, sys.Registry().Snapshot(), sys.Tel))
						pl.Sink.PublishStatus(sys.AppendStatus(nil, eng.Now()))
						pl.Sink.PublishJournal(pl.Journal.AppendJSONL(nil))
					}
					if *journalOut != "" {
						if err := os.WriteFile(*journalOut, pl.Journal.AppendJSONL(nil), 0o644); err != nil {
							fmt.Fprintln(os.Stderr, err)
							os.Exit(1)
						}
						fmt.Printf("journal: wrote %s (%d events)\n", *journalOut, len(pl.Journal.Events()))
					}
					fmt.Printf("slo: %d bad events, %d alerts raised, %d cleared\n",
						pl.Monitor.Bad.N, pl.Monitor.Raised.N, pl.Monitor.Cleared.N)
				}
			}
			launch = func(fn func(space.Space, func(uint64) (uint64, error))) {
				sys.Launch("app", 0, func(sp *core.DDCProc) { fn(sp, sys.MmapDDC) })
			}
			report = func() {
				fmt.Printf("faults: major=%d minor=%d late-map=%d prefetches=%d\n",
					sys.MajorFaults.N, sys.MinorFaults.N, sys.LateMapHits.N, sys.Prefetches.N)
				fmt.Printf("page manager: cleaned=%d evicted=%d sync-writes=%d\n",
					sys.Mgr.Cleaned.N, sys.Mgr.Evicted.N, sys.Mgr.SyncWrites.N)
				fmt.Printf("network: rx=%d MB tx=%d MB\n",
					sys.Link.RxBytes.N>>20, sys.Link.TxBytes.N>>20)
				if sys.Mig != nil {
					fmt.Printf("migration: moved=%d restarts=%d stranded=%d drains-done=%d rebalances=%d forwarded=%d\n",
						sys.Mig.PagesMoved.N, sys.Mig.CopyRestarts.N, sys.Mig.Stranded.N,
						sys.Mig.DrainsDone.N, sys.Mig.Rebalances.N, sys.Space().Forwarded())
				}
				if sys.Chaos != nil {
					fmt.Printf("chaos: injected-fails=%d tails=%d stalls=%d node-down-ops=%d\n",
						sys.Chaos.Fails.N, sys.Chaos.Tails.N, sys.Chaos.Stalls.N, sys.Chaos.Crashed.N)
					fmt.Printf("recovery: retries=%d gave-up=%d replica-fetches=%d write-fails=%d "+
						"prefetch-fails=%d rereplicated=%d breaker-trips=%d recoveries=%d\n",
						sys.FetchRetries.Retries.N, sys.FetchRetries.GaveUp.N, sys.ReplicaFetches.N,
						sys.Mgr.WriteFails.N, sys.PrefetchFails.N, sys.ReReplicated.N,
						sys.Health.NodeFails.N, sys.Health.NodeRecoveries.N)
				}
			}
		case "fastswap":
			coreCount := 4
			if coreN > 0 {
				coreCount = coreN
			}
			sys := fastswap.New(eng, fastswap.Config{
				CacheFrames: frames, Cores: coreCount, RemoteBytes: remote,
				Fabric: fabric.DefaultParams(),
				Tel:    rec, SampleEvery: sampleEvery,
			})
			sys.Start()
			registry = sys.Registry()
			telOf = sys.Telemetry
			launch = func(fn func(space.Space, func(uint64) (uint64, error))) {
				sys.Launch("app", 0, func(sp *fastswap.FSProc) { fn(sp, sys.MmapDDC) })
			}
			report = func() {
				fmt.Printf("faults: major=%d minor=%d direct-reclaims=%d sync-writes=%d\n",
					sys.MajorFaults.N, sys.MinorFaults.N, sys.DirectRecl.N, sys.SyncWrites.N)
				fmt.Printf("network: rx=%d MB tx=%d MB\n",
					sys.Link.RxBytes.N>>20, sys.Link.TxBytes.N>>20)
			}
		default:
			fmt.Fprintf(os.Stderr, "unknown system %q\n", *system)
			os.Exit(2)
		}

		var elapsed sim.Time
		var summary string
		launch(func(sp space.Space, mmap func(uint64) (uint64, error)) {
			switch *workload {
			case "seqread":
				base, _ := mmap(*pages)
				elapsed = workloads.SeqRead(sp, base, *pages)
				summary = fmt.Sprintf("%.2f GB/s", stats.GBps(float64(*pages*4096)/elapsed.Seconds()))
			case "seqwrite":
				base, _ := mmap(*pages)
				elapsed = workloads.SeqWrite(sp, base, *pages)
				summary = fmt.Sprintf("%.2f GB/s", stats.GBps(float64(*pages*4096)/elapsed.Seconds()))
			case "quicksort":
				n := *pages * 4096 / 8
				base, _ := mmap(*pages + 1)
				workloads.FillRandomU64(sp, base, n, 1)
				elapsed = workloads.Quicksort(sp, base, n)
				if !workloads.IsSorted(sp, base, n) {
					summary = "SORT FAILED"
				} else {
					summary = fmt.Sprintf("sorted %d elements", n)
				}
			case "kmeans":
				cfg := workloads.DefaultKMeans(*pages * 4096 / (15 * 8 * 4))
				pb, ab, db := workloads.KMeansLayout(cfg)
				base, _ := mmap((pb+ab+db)/4096 + 2)
				workloads.KMeansInit(sp, base, cfg)
				var inertia uint64
				elapsed, inertia = workloads.KMeans(sp, base, base+pb, base+pb+ab, cfg)
				summary = fmt.Sprintf("inertia=%d", inertia)
			case "redis-get":
				srv := redis.NewServer(sp)
				if guide != nil {
					guide.Install(srv, procOf(sp))
				}
				keys := int(*pages) / 2
				redis.PopulateGET(srv, keys, redis.SizeFixed(4096))
				res := redis.RunGET(sp, srv, keys, keys*2, redis.SizeFixed(4096), 1)
				elapsed = res.Elapsed
				summary = fmt.Sprintf("%.0f ops/s, p99=%v, bad=%d",
					res.ThroughputOps(), res.Latency.P99(), res.BadValues)
			case "redis-lrange":
				srv := redis.NewServer(sp)
				if guide != nil {
					guide.Install(srv, procOf(sp))
				}
				redis.PopulateLRANGE(srv, 64, int(*pages)*4, 100, 2)
				res := redis.RunLRANGE(sp, srv, 64, 500, 3)
				elapsed = res.Elapsed
				summary = fmt.Sprintf("%.0f ops/s, p99=%v", res.ThroughputOps(), res.Latency.P99())
			default:
				fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
				os.Exit(2)
			}
		})
		eng.Run()

		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			r, sam := telOf()
			if err := telemetry.WritePerfetto(f, r, sam); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("trace: wrote %s (%d spans, %d dropped)\n",
				*traceOut, r.Len(), r.DroppedTotal())
		}

		fmt.Printf("%s on %s (%s, %.1f%% local): %v — %s\n",
			*workload, *system, *pf, *cache*100, elapsed, summary)
		if *nodes > 1 || *replicas > 1 {
			fmt.Printf("placement: %s across %d nodes, %d replica(s) per page\n",
				policy.Name(), *nodes, *replicas)
		}
		report()
		if obsFinish != nil {
			obsFinish()
		}
		if *dumpStats {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(registry.Snapshot()); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	for i, coreN := range coresList {
		if i > 0 {
			fmt.Println()
		}
		if *coresSpec != "" {
			fmt.Printf("=== cores=%d ===\n", coreN)
		}
		runOnce(coreN)
	}
}

func procOf(sp space.Space) *sim.Proc {
	type hasProc interface{ Proc() *sim.Proc }
	return sp.(hasProc).Proc()
}
