package experiments

import (
	"dilos/internal/core"
	"dilos/internal/fastswap"
	"dilos/internal/pagemgr"
	"dilos/internal/pagetable"
	"dilos/internal/redis"
	"dilos/internal/sim"
	"dilos/internal/space"
	"dilos/internal/stats"
)

// This file regenerates the Redis artifacts: Figure 10 (GET/LRANGE
// throughput), Table 4 (tail latency), and Figure 12 (guided-paging
// bandwidth), §6.2–§6.3.

// RedisRow is one bar of Figure 10 plus the Table 4 percentiles.
type RedisRow struct {
	System   SystemKind
	Fraction float64
	OpsPerS  float64
	P99      sim.Time
	P999     sim.Time
	Bad      int
	// Fault-path tails underneath the request tails (Table 4's extra
	// columns): p99 of the major- and minor-fault service latencies.
	MajorFaultP99 sim.Time
	MinorFaultP99 sim.Time
}

// redisGET runs one GET configuration.
func (r *Run) redisGET(kind SystemKind, frac float64, nKeys, queries int, sizeOf func(int) int) RedisRow {
	// Working set ≈ keys × mean value size (plus structures).
	var totalBytes uint64
	for i := 0; i < nKeys; i++ {
		totalBytes += uint64(sizeOf(i)) + 64
	}
	wsPages := totalBytes / 4096
	row := RedisRow{System: kind, Fraction: frac}

	runSrv := func(sp space.Space, guide *redis.AppGuide, p *sim.Proc) {
		srv := redis.NewServer(sp)
		if guide != nil {
			guide.Install(srv, p)
		}
		redis.PopulateGET(srv, nKeys, sizeOf)
		res := redis.RunGET(sp, srv, nKeys, queries, sizeOf, 17)
		row.OpsPerS = res.ThroughputOps()
		row.P99 = res.Latency.P99()
		row.P999 = res.Latency.P999()
		row.Bad = res.BadValues
	}

	eng := sim.New()
	var src statsSource
	var faultLat, minorLat *stats.Histogram
	switch kind {
	case SysFastswap:
		sys := r.fswap(eng, wsPages, frac)
		src, faultLat, minorLat = sys, sys.FaultLat, sys.MinorFaultLat
		sys.Launch("redis", 0, func(sp *fastswap.FSProc) { runSrv(sp, nil, sp.Proc()) })
	case SysDiLOSApp:
		g := redis.NewAppGuide()
		sys := r.dilos(eng, wsPages, frac, nil, g, nil, false)
		src, faultLat, minorLat = sys, sys.FaultLat, sys.MinorFaultLat
		sys.Launch("redis", 0, func(sp *core.DDCProc) { runSrv(sp, g, sp.Proc()) })
	default:
		sys := r.dilos(eng, wsPages, frac, pfFor(kind), nil, nil, false)
		src, faultLat, minorLat = sys, sys.FaultLat, sys.MinorFaultLat
		sys.Launch("redis", 0, func(sp *core.DDCProc) { runSrv(sp, nil, sp.Proc()) })
	}
	eng.Run()
	row.MajorFaultP99 = faultLat.P99()
	row.MinorFaultP99 = minorLat.P99()
	r.collect("redis.get/"+string(kind)+"/"+FracLabel(frac), src)
	return row
}

// redisSystems is the Figure 10 line-up.
var redisSystems = []SystemKind{SysFastswap, SysDiLOSNone, SysDiLOSRA, SysDiLOSTrend, SysDiLOSApp}

// redisFractions: the paper sweeps local memory on the x axis; 12.5–50 %
// covers the memory-constrained regime it highlights.
var redisFractions = []float64{0.125, 0.25, 0.5}

// Fig10a reproduces Figure 10(a): GET throughput, 4 KiB values.
func Fig10a(r *Run) []RedisRow {
	return r.fig10get(r.Scale.RedisKeys4K, r.Scale.RedisQueries, redis.SizeFixed(4096))
}

// Fig10b reproduces Figure 10(b): GET throughput, 64 KiB values.
func Fig10b(r *Run) []RedisRow {
	return r.fig10get(r.Scale.RedisKeys64K, r.Scale.RedisQueries/4, redis.SizeFixed(64<<10))
}

// Fig10c reproduces Figure 10(c): GET throughput, mixed Facebook-photo
// sizes (4–128 KiB).
func Fig10c(r *Run) []RedisRow {
	return r.fig10get(r.Scale.RedisKeysMix, r.Scale.RedisQueries/4, redis.SizeMixed())
}

func (r *Run) fig10get(keys, queries int, sizeOf func(int) int) []RedisRow {
	var rows []RedisRow
	for _, kind := range redisSystems {
		for _, frac := range redisFractions {
			rows = append(rows, r.redisGET(kind, frac, keys, queries, sizeOf))
		}
	}
	return rows
}

// Fig10d reproduces Figure 10(d): LRANGE_100 throughput over many lists.
func Fig10d(r *Run) []RedisRow {
	sc := r.Scale
	var rows []RedisRow
	wsPages := uint64(sc.RedisListElem) * 130 / 4096
	for _, kind := range redisSystems {
		for _, frac := range redisFractions {
			row := RedisRow{System: kind, Fraction: frac}
			runSrv := func(sp space.Space, guide *redis.AppGuide, p *sim.Proc) {
				srv := redis.NewServer(sp)
				if guide != nil {
					guide.Install(srv, p)
				}
				redis.PopulateLRANGE(srv, sc.RedisLists, sc.RedisListElem, 100, 19)
				res := redis.RunLRANGE(sp, srv, sc.RedisLists, sc.RedisQueries/10, 23)
				row.OpsPerS = res.ThroughputOps()
				row.P99 = res.Latency.P99()
				row.P999 = res.Latency.P999()
			}
			eng := sim.New()
			var src statsSource
			var faultLat, minorLat *stats.Histogram
			switch kind {
			case SysFastswap:
				sys := r.fswap(eng, wsPages, frac)
				src, faultLat, minorLat = sys, sys.FaultLat, sys.MinorFaultLat
				sys.Launch("redis", 0, func(sp *fastswap.FSProc) { runSrv(sp, nil, sp.Proc()) })
			case SysDiLOSApp:
				g := redis.NewAppGuide()
				sys := r.dilos(eng, wsPages, frac, nil, g, nil, false)
				src, faultLat, minorLat = sys, sys.FaultLat, sys.MinorFaultLat
				sys.Launch("redis", 0, func(sp *core.DDCProc) { runSrv(sp, g, sp.Proc()) })
			default:
				sys := r.dilos(eng, wsPages, frac, pfFor(kind), nil, nil, false)
				src, faultLat, minorLat = sys, sys.FaultLat, sys.MinorFaultLat
				sys.Launch("redis", 0, func(sp *core.DDCProc) { runSrv(sp, nil, sp.Proc()) })
			}
			eng.Run()
			row.MajorFaultP99 = faultLat.P99()
			row.MinorFaultP99 = minorLat.P99()
			r.collect("redis.lrange/"+string(kind)+"/"+FracLabel(frac), src)
			rows = append(rows, row)
		}
	}
	return rows
}

// Tab4Row is one row of Table 4: tail latencies at the memory-constrained
// setting.
type Tab4Row struct {
	System     SystemKind
	GetP99     sim.Time
	GetP999    sim.Time
	LRangeP99  sim.Time
	LRangeP999 sim.Time
	// Fault-service tails during the GET run: they explain where the
	// request tails above come from (major = remote fetch, minor = a page
	// already in flight or cached unmapped).
	MajorFaultP99 sim.Time
	MinorFaultP99 sim.Time
}

// Tab4 reproduces Table 4: p99/p99.9 of GET (mixed) and LRANGE at 12.5 %
// local memory.
func Tab4(r *Run) []Tab4Row {
	get := fig10Filter(Fig10c(r), 0.125)
	lr := fig10Filter(Fig10d(r), 0.125)
	var rows []Tab4Row
	for i, kind := range redisSystems {
		rows = append(rows, Tab4Row{
			System:        kind,
			GetP99:        get[i].P99,
			GetP999:       get[i].P999,
			LRangeP99:     lr[i].P99,
			LRangeP999:    lr[i].P999,
			MajorFaultP99: get[i].MajorFaultP99,
			MinorFaultP99: get[i].MinorFaultP99,
		})
	}
	return rows
}

func fig10Filter(rows []RedisRow, frac float64) []RedisRow {
	var out []RedisRow
	for _, row := range rows {
		if row.Fraction == frac {
			out = append(out, row)
		}
	}
	return out
}

// Fig12Row summarizes one Figure 12 configuration: network bytes moved
// during the DEL and GET phases, with and without guided paging.
type Fig12Row struct {
	Guided     bool
	DelTxMB    float64 // write-back traffic during DEL churn
	GetRxMB    float64 // fetch traffic during the GET sweep
	SavedBytes int64   // allocator-reported bytes excluded from migration
	RxSeries   []stats.BandwidthPoint
	TxSeries   []stats.BandwidthPoint
}

// Fig12 reproduces Figure 12: bandwidth consumption during DEL then GET
// with the app-aware allocator's guided paging versus default full-page
// paging. The paper populates 128 M × 128 B values, deletes ~70 %, and
// sweeps GETs with ~25 % local memory; this run keeps those ratios.
func Fig12(r *Run) []Fig12Row {
	const nKeys = 24000 // 128 B values ⇒ ~4.6 MiB live + structures
	const valSize = 128
	run := func(guided bool) Fig12Row {
		eng := sim.New()
		wsPages := uint64(nKeys) * (valSize + 96) / 4096
		var sys *core.System
		// Build the system; the eviction guide is the server's allocator,
		// which doesn't exist until the workload runs, so wire it through
		// a forwarding guide.
		fw := &forwardingGuide{}
		var eg pagemgr.EvictionGuide
		if guided {
			eg = fw
		}
		sys = r.dilos(eng, wsPages, 0.25, nil, nil, eg, false)
		sys.Link.RxBW = stats.NewBandwidth("rx", sim.Millisecond)
		sys.Link.TxBW = stats.NewBandwidth("tx", sim.Millisecond)
		row := Fig12Row{Guided: guided}
		sys.Launch("redis", 0, func(sp *core.DDCProc) {
			srv := redis.NewServer(sp)
			fw.guide = srv.Allocator()
			redis.PopulateGET(srv, nKeys, redis.SizeFixed(valSize))
			tx0 := sys.Link.TxBytes.N
			redis.RunDEL(srv, nKeys, 0.7, 29)
			// Let the cleaner/reclaimer drain the DEL churn.
			sp.Proc().Sleep(2 * sim.Millisecond)
			row.DelTxMB = float64(sys.Link.TxBytes.N-tx0) / 1e6
			rx0 := sys.Link.RxBytes.N
			res := redis.RunGET(sp, srv, nKeys, nKeys/2, redis.SizeFixed(valSize), 31)
			row.GetRxMB = float64(sys.Link.RxBytes.N-rx0) / 1e6
			_ = res
		})
		eng.Run()
		label := "fig12/default"
		if guided {
			label = "fig12/guided"
		}
		r.collect(label, sys)
		row.SavedBytes = sys.Mgr.VectorSaves.N
		row.RxSeries = sys.Link.RxBW.Series()
		row.TxSeries = sys.Link.TxBW.Series()
		return row
	}
	return []Fig12Row{run(false), run(true)}
}

// forwardingGuide defers to an eviction guide installed later (the
// workload's allocator is created inside the sim).
type forwardingGuide struct {
	guide pagemgr.EvictionGuide
}

// LiveChunks implements pagemgr.EvictionGuide.
func (f *forwardingGuide) LiveChunks(vpn pagetable.VPN) ([]pagemgr.Chunk, bool) {
	if f.guide == nil {
		return nil, false
	}
	return f.guide.LiveChunks(vpn)
}
