package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"dilos/internal/core"
	"dilos/internal/fabric"
	"dilos/internal/prefetch"
	"dilos/internal/sim"
	"dilos/internal/stats"
	"dilos/internal/telemetry"
	"dilos/internal/workloads"
)

const (
	pageSize = 4096
	// latBlock is how many consecutive ops share one clock read on the sim
	// workloads: a read per op would cost a tenth of a cache hit, and a
	// hit's few dozen nanoseconds would quantise to the clock's resolution.
	latBlock = 32
	// settle is the virtual time a proc idles between its write-warm and the
	// rendezvous, long enough for the cleaner (a 128-page batch every 20 us)
	// to write the warm's dirty pages back, so that the op loop starts from
	// a clean cache and fault_storm's cleaner counters read 0.
	settle = 2 * sim.Millisecond
)

// simWorkload is the scaffolding fault_storm and scan_rw share: one
// sequential engine, one core.System with two simulated cores and two
// shards, a cache of an eighth of the working set. A repetition boots a
// fresh engine and system from the same seed, so its virtual-time digest
// must equal the first repetition's.
type simWorkload struct {
	name      string
	seed      uint64
	pages     uint64 // working set
	frames    int    // local cache
	procs     int    // workload threads, one per simulated core
	readahead bool
	// body is a workload thread: write-warm its share, r.arrive, the op
	// loop, r.leave, then any checking that is not inline.
	body func(w *simWorkload, r *simRun, c int, sp *core.DDCProc)
	// opsPerRep is what one repetition's op loops add up to.
	opsPerRep int64
	// want is the word page pg must hold. It is stamp(seed, pg); the
	// self-test swaps in a wrong one to see the checker count.
	want func(pg uint64) uint64

	opsPerProc int // fault_storm
	passes     int // scan_rw
}

// simRun is the state of one repetition, shared by its workload threads.
// The engine resumes one proc at a time, so none of it needs locking.
type simRun struct {
	w    *simWorkload
	sys  *core.System
	base uint64
	tr   *tracer
	boot time.Time

	arrived, left int
	win           *window
	d             delta
	setupNs       int64
	loopSpan      int
	count0        map[string]int64
	count1        map[string]int64
	faultP50Ns    int64
	faultP99Ns    int64
	snapJSON      []byte
	virtStart     sim.Time
	virtEnd       sim.Time
	lat           [][]float64
	failed        []int64
	checked       int64 // loads checked outside the op loop
	err           error
}

func (w *simWorkload) setup(*config) ([]float64, error) { return nil, nil }
func (w *simWorkload) close()                           {}
func (w *simWorkload) plan() (bool, int, int)           { return true, 3, tracedReps }

func (w *simWorkload) finish() (int64, int64, error) { return 0, 0, nil }

func (w *simWorkload) rep(c *config, tr *tracer) (*rep, error) {
	r := &simRun{w: w, tr: tr, boot: time.Now(), lat: make([][]float64, w.procs), failed: make([]int64, w.procs)}
	for i := range r.lat {
		r.lat[i] = make([]float64, 0, int(w.opsPerRep)/w.procs/latBlock+1)
	}
	var rec *telemetry.Recorder
	if tr != nil {
		rec = telemetry.NewRecorder(0)
	}
	var pf prefetch.Prefetcher
	if w.readahead {
		pf = prefetch.NewReadahead(0)
	}
	eng := sim.New()
	r.sys = core.New(eng, core.Config{
		CacheFrames: w.frames,
		Cores:       2,
		Shards:      2,
		RemoteBytes: w.pages*pageSize + (2 << 20),
		Fabric:      fabric.DefaultParams(),
		Prefetcher:  pf,
		Tel:         rec,
	})
	r.sys.Start()
	base, err := r.sys.MmapDDC(w.pages)
	if err != nil {
		return nil, fmt.Errorf("mmap: %w", err)
	}
	r.base = base
	for p := 0; p < w.procs; p++ {
		p := p
		r.sys.Launch(fmt.Sprintf("%s%d", w.name, p), p, func(sp *core.DDCProc) { w.body(w, r, p, sp) })
	}
	eng.Run()
	if r.err != nil {
		return nil, r.err
	}

	out := &rep{vals: map[string]float64{}, setupS: float64(r.setupNs) / 1e9}
	out.fillHost(r.d, w.opsPerRep)
	out.attempted = w.opsPerRep + r.checked
	for p := range r.lat {
		out.latUs = append(out.latUs, r.lat[p]...)
		out.failed += r.failed[p]
	}
	ops := float64(w.opsPerRep)
	virtNs := int64(r.virtEnd - r.virtStart)
	v := out.vals
	v["virt_ops_per_s"] = ops / (float64(virtNs) / 1e9)
	v["virt_lat_p50_us"] = float64(r.faultP50Ns) / 1e3
	v["virt_lat_p99_us"] = float64(r.faultP99Ns) / 1e3
	v["sim.slowdown_x"] = float64(r.d.WallNs) / float64(virtNs)
	dc := func(name string) float64 { return float64(r.count1[name] - r.count0[name]) }
	major, minor, issued := dc("dilos.major_faults"), dc("dilos.minor_faults"), dc("dilos.prefetches")
	v["core.major_per_op"] = major / ops
	v["core.minor_per_op"] = minor / ops
	v["prefetch.issued_per_op"] = issued / ops
	if issued > 0 {
		v["prefetch.coverage_pct"] = 100 * (1 - major/ops)
		v["prefetch.waste_pct"] = max(0, 100*(issued-(ops-major))/issued)
	}
	for _, k := range []string{"evicted", "cleaned", "sync_writes", "alloc_waits", "steals"} {
		v["pagemgr."+k+"_per_op"] = dc("pagemgr."+k) / ops
	}
	// An unbatched op rings its own doorbell; a batch rings one for all of its ops.
	linkOps := dc("link.node0.rx.ops") + dc("link.node0.tx.ops")
	v["fabric.doorbells_per_op"] = (linkOps - dc("link.node0.batch.ops") + dc("link.node0.batch.doorbells")) / ops
	v["fabric.rx_bytes_per_op"] = dc("link.node0.rx.bytes") / ops
	v["fabric.tx_bytes_per_op"] = dc("link.node0.tx.bytes") / ops

	sum := sha256.New()
	fmt.Fprintf(sum, "virt_ns=%d\n", virtNs)
	sum.Write(r.snapJSON)
	out.digest = fmt.Sprintf("%x", sum.Sum(nil)[:8])

	if rec != nil {
		// The stage means are an attribution of the fault mean: they must
		// add up to it, give or take each stage's integer division.
		a := telemetry.FaultAnatomy(rec)
		var sum int64
		for _, st := range a.Stages {
			v["core.virt_stage_ns."+st.Stage] = float64(st.MeanNs)
			sum += st.MeanNs
		}
		if d := a.MeanNs - sum; d < 0 || d > int64(len(a.Stages)) {
			return nil, fmt.Errorf("fault stages sum to %d ns, the traced fault mean is %d ns", sum, a.MeanNs)
		}
	}
	return out, nil
}

// arrive is the rendezvous between the write-warm and the op loop. Procs
// that finish warming early poll in virtual time; the last to arrive opens
// the host-time window, so the window holds op loops and nothing else.
func (r *simRun) arrive(sp *core.DDCProc) {
	sp.Proc().Sleep(settle)
	r.arrived++
	for r.arrived < r.w.procs {
		sp.Proc().Sleep(sim.Microsecond)
	}
	if r.win == nil {
		r.count0 = counterMap(r.sys.Registry().Snapshot().Counters)
		r.setupNs = time.Since(r.boot).Nanoseconds()
		r.virtStart = sp.Now()
		r.loopSpan = r.tr.begin("op loop")
		if err := r.tr.profileStart(); err != nil {
			r.err = err
		}
		r.win = openWindow(false)
	}
}

// leave closes the window when the last op loop ends and takes the
// snapshot that the count metrics and the digest are made from.
func (r *simRun) leave(sp *core.DDCProc) {
	r.left++
	if r.left < r.w.procs {
		return
	}
	r.d = r.win.close()
	if err := r.tr.profileStop(); err != nil {
		r.err = err
	}
	r.tr.end(r.loopSpan)
	r.virtEnd = sp.Now()
	snap := r.sys.Registry().Snapshot()
	r.count1 = counterMap(snap.Counters)
	if h, ok := snap.Histogram("dilos.fault_latency"); ok {
		r.faultP50Ns, r.faultP99Ns = h.P50Ns, h.P99Ns
	}
	// Marshalling a snapshot of plain numbers and strings cannot fail.
	r.snapJSON, _ = json.Marshal(snap)
}

// counterMap indexes a registry snapshot's counters by name.
func counterMap(cs []stats.CounterSnap) map[string]int64 {
	m := make(map[string]int64, len(cs))
	for _, c := range cs {
		m[c.Name] = c.N
	}
	return m
}

// check is the sim workloads' checker: one loaded word against the stamp
// it must hold. It returns 1 for a mismatch so callers can sum failures.
func check(got, want uint64) int64 {
	if got != want {
		return 1
	}
	return 0
}

// newFaultStorm: two procs, one per simulated core, each issue seeded-random
// LoadU64 over a 16384-page working set behind a 12.5 % cache with no
// prefetcher, after write-warming half of it each. About seven loads in
// eight are major faults, so the fault path, sim switching, the fabric and
// memnode copy and the reclaimer do nearly all the work; nothing is dirty
// after the warm, so the cleaner does none.
func newFaultStorm(c *config) *simWorkload {
	w := &simWorkload{name: wFaultStorm, seed: c.seed, pages: 16384, frames: 2048, procs: 2, opsPerProc: 300_000, body: stormBody}
	if c.quick {
		w.pages, w.frames, w.opsPerProc = 512, 64, 64*latBlock
	}
	w.opsPerRep = int64(w.procs * w.opsPerProc)
	w.want = func(pg uint64) uint64 { return stamp(w.seed, pg) }
	return w
}

func stormBody(w *simWorkload, r *simRun, c int, sp *core.DDCProc) {
	id := r.tr.begin("write-warm")
	for pg := uint64(c); pg < w.pages; pg += uint64(w.procs) {
		sp.StoreU64(r.base+pg*pageSize, stamp(w.seed, pg))
	}
	r.tr.end(id)
	r.arrive(sp)
	gen := newRNG(w.seed, uint64(c)+1)
	lat := r.lat[c]
	var failed int64
	last := time.Now()
	for i := 0; i < w.opsPerProc; i += latBlock {
		for j := 0; j < latBlock; j++ {
			pg := gen.next() % w.pages
			failed += check(sp.LoadU64(r.base+pg*pageSize), w.want(pg))
		}
		now := time.Now()
		lat = append(lat, float64(now.Sub(last).Nanoseconds())/latBlock/1e3)
		last = now
	}
	r.lat[c], r.failed[c] = lat, failed
	r.leave(sp)
}

// newScanRW: the same system with the readahead prefetcher, one proc,
// alternating sequential read and write passes over the working set. Most
// touches are prefetch hits or minor faults and the write passes make the
// cleaner write every page back, so it uses the layers fault_storm uses
// differently: a fault-path gain paid for in prefetch mapping or
// write-back shows here.
func newScanRW(c *config) *simWorkload {
	w := &simWorkload{name: wScanRW, seed: c.seed, pages: 16384, frames: 2048, procs: 1, readahead: true, passes: 12, body: scanBody}
	if c.quick {
		w.pages, w.frames, w.passes = 512, 64, 2
	}
	w.opsPerRep = int64(w.passes) * 2 * int64(w.pages)
	w.want = func(pg uint64) uint64 { return stamp(w.seed, pg) }
	return w
}

// scanBody runs workloads.SeqRead and workloads.SeqWrite over consecutive
// latBlock-page chunks, so the library's loops do the touching and the
// benchmark reads the clock between chunks. SeqWrite stores into word 0 of
// each page; the write-warm stamps word 1, which must survive every
// eviction, write-back and refetch the passes cause.
func scanBody(w *simWorkload, r *simRun, c int, sp *core.DDCProc) {
	id := r.tr.begin("write-warm")
	for pg := uint64(0); pg < w.pages; pg++ {
		sp.StoreU64(r.base+pg*pageSize+8, stamp(w.seed, pg))
	}
	r.tr.end(id)
	r.arrive(sp)
	lat := r.lat[c]
	last := time.Now()
	chunks := w.pages / latBlock
	for pass := 0; pass < w.passes; pass++ {
		for _, write := range []bool{false, true} {
			name := "read pass"
			if write {
				name = "write pass"
			}
			id := r.tr.begin(name)
			for ch := uint64(0); ch < chunks; ch++ {
				at := r.base + ch*latBlock*pageSize
				if write {
					workloads.SeqWrite(sp, at, latBlock)
				} else {
					workloads.SeqRead(sp, at, latBlock)
				}
				now := time.Now()
				lat = append(lat, float64(now.Sub(last).Nanoseconds())/latBlock/1e3)
				last = now
			}
			r.tr.end(id)
		}
	}
	r.lat[c] = lat
	r.leave(sp)
	id = r.tr.begin("verify")
	var failed int64
	for pg := uint64(0); pg < w.pages; pg++ {
		failed += check(sp.LoadU64(r.base+pg*pageSize+8), w.want(pg))
		failed += check(sp.LoadU64(r.base+pg*pageSize), pg%latBlock)
	}
	r.failed[c], r.checked = failed, 2*int64(w.pages)
	r.tr.end(id)
}
