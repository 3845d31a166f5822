package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"dilos/internal/memnode"
	"dilos/internal/transport"
)

const (
	wireKey = 0xd170
	// spanEvery is the wire-request span sampling: one request in 64 is
	// timed as submit + wait in a traced repetition.
	spanEvery = 64
	// wireSetups is how many times a wire workload boots its node, server
	// and client so that setup_s is a median.
	wireSetups = 5
)

// Op classes of the wire workloads, with what each moves.
const (
	opRead4K = iota
	opWrite4K
	opRead128
	opReadV3
	opWriteV3
	numClasses
)

// The three segments of a vectored op: about 2 KiB of a page's live bytes,
// the shape guided paging fetches and writes back.
var vecSegs = [3]struct{ off, len uint32 }{{0, 512}, {1024, 1024}, {3072, 512}}

// classShape gives each class's payload bytes and its request and response
// frame sizes on the wire (wire.go: a 15-byte request header plus 12 bytes
// per segment, a 9-byte response header).
var classShape = [numClasses]struct{ payload, req, resp int }{
	opRead4K:  {4096, 27, 9 + 4096},
	opWrite4K: {4096, 27 + 4096, 9},
	opRead128: {128, 27, 9 + 128},
	opReadV3:  {2048, 15 + 36, 9 + 2048},
	opWriteV3: {2048, 15 + 36 + 2048, 9},
}

// wireWorkload is the scaffolding of wire_read4k and wire_mixed: one
// process holding a memnode behind transport.NewServer on 127.0.0.1:0 and
// one transport.Client, kept across repetitions. No simulator code runs.
// Every byte read is compared against a host-side shadow of the region.
type wireWorkload struct {
	name  string
	seed  uint64
	lanes int // connections; one load generator each
	depth int // in-flight window per lane
	pages int
	// mix is the cumulative share of each op class in the windowed phase, in
	// per cent; wire_read4k is all READ.
	mix       [numClasses]int
	depth1Ops int // depth-1 ops per class in the latency phase
	windowOps int // ops of the windowed phase, over all lanes
	node      *memnode.Node
	srv       *transport.Server
	served    chan error
	cl        *transport.Client
	base      uint64
	shadow    []byte
}

func newWireRead4K(c *config) *wireWorkload {
	w := &wireWorkload{name: wWireRead4K, seed: c.seed, lanes: 1, depth: 64, pages: 16384,
		mix: [numClasses]int{100, 100, 100, 100, 100}, depth1Ops: 30_000, windowOps: 200_000}
	if c.quick {
		w.pages, w.depth1Ops, w.windowOps = 256, 200, 2000
	}
	return w
}

// newWireMixed: the traffic the fault handler, cleaner and guides really
// send — 50 % 4 KiB READ, 20 % 4 KiB WRITE, 15 % 128 B READ, 10 % 3-segment
// READV and 5 % 3-segment WRITEV — over min(2, nproc) lanes with a window
// of 16 each.
func newWireMixed(c *config) *wireWorkload {
	w := &wireWorkload{name: wWireMixed, seed: c.seed, lanes: min(2, runtime.NumCPU()), depth: 16, pages: 16384,
		mix: [numClasses]int{50, 70, 85, 95, 100}, depth1Ops: 4_000, windowOps: 120_000}
	if c.quick {
		w.pages, w.depth1Ops, w.windowOps = 256, 50, 2000
	}
	return w
}

func (w *wireWorkload) plan() (bool, int, int) { return true, 3, tracedReps }

func (w *wireWorkload) mixed() bool { return w.mix[opRead4K] < 100 }

// classes lists the op classes the workload issues.
func (w *wireWorkload) classes() []int {
	if !w.mixed() {
		return []int{opRead4K}
	}
	return []int{opRead4K, opWrite4K, opRead128, opReadV3, opWriteV3}
}

func (w *wireWorkload) setup(*config) ([]float64, error) {
	var took []float64
	for i := 0; i < wireSetups; i++ {
		if i > 0 {
			w.close()
			runtime.GC() // let the next node reuse the last one's memory
		}
		t0 := time.Now()
		if err := w.boot(); err != nil {
			return nil, err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return took, nil
}

// boot starts the memory node, its server and the client, and writes the
// seeded pattern over the wire.
func (w *wireWorkload) boot() error {
	size := uint64(w.pages) * pageSize
	w.node = memnode.New(size, wireKey)
	w.srv = transport.NewServer(w.node)
	addr, err := w.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve() }()
	w.cl, err = transport.Dial(addr, wireKey, transport.WithLanes(w.lanes), transport.WithDepth(w.depth),
		transport.WithDeadline(10*time.Second))
	if err != nil {
		return err
	}
	if w.base, err = w.cl.Alloc(uint32(w.pages)); err != nil {
		return fmt.Errorf("alloc: %w", err)
	}
	if w.shadow == nil {
		w.shadow = make([]byte, size)
	}
	gen := newRNG(w.seed, 0x5ad0)
	for off := 0; off < len(w.shadow); off += 8 {
		binary.LittleEndian.PutUint64(w.shadow[off:], gen.next())
	}
	ring := make([]*transport.Pending, w.depth)
	for pg := 0; pg < w.pages; pg++ {
		slot := pg % len(ring)
		if ring[slot] != nil {
			if err := ring[slot].Wait(); err != nil {
				return fmt.Errorf("pattern write: %w", err)
			}
		}
		if ring[slot], err = w.cl.AsyncWrite(w.base+uint64(pg)*pageSize, w.page(pg)); err != nil {
			return fmt.Errorf("pattern write: %w", err)
		}
	}
	for _, p := range ring {
		if p != nil {
			if err := p.Wait(); err != nil {
				return fmt.Errorf("pattern write: %w", err)
			}
		}
	}
	return nil
}

func (w *wireWorkload) close() {
	if w.cl != nil {
		w.cl.Close()
		w.cl = nil
	}
	if w.srv != nil {
		w.srv.Close()
		<-w.served // Serve returns once the listener is closed
		w.srv, w.node = nil, nil
	}
}

// page is the shadow of one page: what the memory node must hold there.
func (w *wireWorkload) page(pg int) []byte { return w.shadow[pg*pageSize : (pg+1)*pageSize] }

// wireOp is one request of a generator's sequence and its buffers.
type wireOp struct {
	class int
	page  int
	sub   int // 128-byte slot of a small read
	pend  *transport.Pending
	buf   []byte // read destination, a slice of the slot's own 4 KiB
	// Traced requests only.
	t0, t1 time.Time // submit start and end
}

// doSync issues op synchronously and checks what it read. It returns the
// number of failed ops (0 or 1).
func (w *wireWorkload) doSync(op *wireOp, bufs [][]byte) int64 {
	off := w.base + uint64(op.page)*pageSize
	pg := w.page(op.page)
	var err error
	switch op.class {
	case opRead4K:
		op.buf = op.buf[:pageSize]
		if err = w.cl.Read(off, op.buf); err == nil && !bytes.Equal(op.buf, pg) {
			return 1
		}
	case opRead128:
		op.buf = op.buf[:128]
		at := op.sub * 128
		if err = w.cl.Read(off+uint64(at), op.buf); err == nil && !bytes.Equal(op.buf, pg[at:at+128]) {
			return 1
		}
	case opWrite4K:
		w.dirty(op.page, 0)
		err = w.cl.Write(off, pg)
	case opReadV3:
		var segs [3]transport.Seg
		at := 0
		for i, s := range vecSegs {
			segs[i] = transport.Seg{Off: off + uint64(s.off), Len: s.len}
			bufs[i] = op.buf[at : at+int(s.len)]
			at += int(s.len)
		}
		if err = w.cl.ReadV(segs[:], bufs); err == nil {
			for i, s := range vecSegs {
				if !bytes.Equal(bufs[i], pg[s.off:s.off+s.len]) {
					return 1
				}
			}
		}
	case opWriteV3:
		var segs [3]transport.Seg
		for i, s := range vecSegs {
			w.dirty(op.page, int(s.off))
			segs[i] = transport.Seg{Off: off + uint64(s.off), Len: s.len}
			bufs[i] = pg[s.off : s.off+s.len]
		}
		err = w.cl.WriteV(segs[:], bufs)
	}
	if err != nil {
		return 1
	}
	return 0
}

// dirty changes the shadow at one spot of a page before that page is
// written, so that a write the memory node lost shows on a later read.
func (w *wireWorkload) dirty(page, at int) {
	p := w.page(page)[at:]
	binary.LittleEndian.PutUint64(p, binary.LittleEndian.Uint64(p)+golden)
}

// submit starts op asynchronously (the three single-segment classes).
func (w *wireWorkload) submit(op *wireOp) error {
	off := w.base + uint64(op.page)*pageSize
	var err error
	switch op.class {
	case opRead4K:
		op.buf = op.buf[:pageSize]
		op.pend, err = w.cl.AsyncRead(off, op.buf)
	case opRead128:
		op.buf = op.buf[:128]
		op.pend, err = w.cl.AsyncRead(off+uint64(op.sub*128), op.buf)
	case opWrite4K:
		w.dirty(op.page, 0)
		op.pend, err = w.cl.AsyncWrite(off, w.page(op.page))
	}
	return err
}

// complete waits for an asynchronous op and checks what it read.
func (w *wireWorkload) complete(op *wireOp) int64 {
	err := op.pend.Wait()
	op.pend = nil
	if err != nil {
		return 1
	}
	pg := w.page(op.page)
	switch op.class {
	case opRead4K:
		if !bytes.Equal(op.buf, pg) {
			return 1
		}
	case opRead128:
		if at := op.sub * 128; !bytes.Equal(op.buf, pg[at:at+128]) {
			return 1
		}
	}
	return 0
}

// pick draws the next op of a generator that owns pages [lo, hi). A page
// among the generator's last `depth` ops is drawn again: the server
// completes a connection's requests out of order, so a read may not be in
// flight beside a write of the same bytes, and the last `depth` issued are
// a superset of what is in flight. The rule depends on the sequence alone,
// never on timing, so the same seed issues the same ops.
func (w *wireWorkload) pick(gen *rng, lo, hi int, recent []int, op *wireOp) {
	roll := gen.intn(100)
	op.class = 0
	for roll >= w.mix[op.class] {
		op.class++
	}
	for {
		op.page = lo + gen.intn(hi-lo)
		clash := false
		for _, p := range recent {
			clash = clash || p == op.page
		}
		if !clash {
			break
		}
	}
	op.sub = gen.intn(pageSize / 128)
}

// generator is one closed-loop load generator of the windowed phase: it
// keeps up to `depth` single-segment requests in flight on a ring, waits
// for the oldest before reusing its slot, and runs the vectored classes
// (which the client offers only synchronously) inline.
func (w *wireWorkload) generator(g, ops int, tr *tracer, phase int, out *genResult) {
	per := w.pages / w.lanes
	lo, hi := g*per, (g+1)*per
	gen := newRNG(w.seed, 0x6e0+uint64(g))
	ring := make([]wireOp, w.depth)
	arena := make([]byte, w.depth*pageSize)
	for i := range ring {
		ring[i].buf = arena[i*pageSize : (i+1)*pageSize]
		ring[i].page = -1
	}
	recent := make([]int, w.depth)
	for i := range recent {
		recent[i] = -1
	}
	bufs := make([][]byte, 3)
	finish := func(op *wireOp) {
		sampled := !op.t0.IsZero()
		var t2 time.Time
		if sampled {
			t2 = time.Now()
		}
		out.failed += w.complete(op)
		if sampled {
			t3 := time.Now()
			id := tr.spans.add("req "+className(op.class), phase, g+1, op.t0, t3)
			tr.spans.add("submit", id, g+1, op.t0, op.t1)
			tr.spans.add("wait", id, g+1, t2, t3)
			out.submitNs = append(out.submitNs, float64(op.t1.Sub(op.t0).Nanoseconds()))
			out.waitNs = append(out.waitNs, float64(t3.Sub(t2).Nanoseconds()))
			op.t0 = time.Time{}
		}
	}
	for i := 0; i < ops; i++ {
		op := &ring[i%len(ring)]
		if op.pend != nil {
			finish(op)
		}
		w.pick(gen, lo, hi, recent, op)
		recent[i%len(recent)] = op.page
		out.payload += int64(classShape[op.class].payload)
		if op.class == opReadV3 || op.class == opWriteV3 {
			out.failed += w.doSync(op, bufs)
			continue
		}
		sampled := tr != nil && i%spanEvery == 0
		if sampled {
			op.t0 = time.Now()
		}
		if err := w.submit(op); err != nil {
			out.failed++
			op.pend, op.t0 = nil, time.Time{}
			continue
		}
		if sampled {
			op.t1 = time.Now()
		}
	}
	for i := range ring {
		if ring[i].pend != nil {
			finish(&ring[i])
		}
	}
}

type genResult struct {
	failed   int64
	payload  int64
	submitNs []float64
	waitNs   []float64
}

func className(class int) string { return mixClasses[class] }

func (w *wireWorkload) rep(c *config, tr *tracer) (*rep, error) {
	out := &rep{vals: map[string]float64{}, pooled: map[string][]float64{}, setupS: math.NaN()}
	if err := tr.profileStart(); err != nil {
		return nil, err
	}

	// Latency phase: depth-1 requests, each class in turn, every one timed.
	phase := tr.begin("depth-1 phase")
	gen := newRNG(w.seed, 0x1a7)
	op := wireOp{buf: make([]byte, pageSize)}
	bufs := make([][]byte, 3)
	for _, class := range w.classes() {
		lat := make([]float64, 0, w.depth1Ops)
		for i := 0; i < w.depth1Ops; i++ {
			op.class, op.page, op.sub = class, gen.intn(w.pages), gen.intn(pageSize/128)
			t0 := time.Now()
			out.failed += w.doSync(&op, bufs)
			t1 := time.Now()
			lat = append(lat, float64(t1.Sub(t0).Nanoseconds())/1e3)
			if tr != nil && i%spanEvery == 0 {
				tr.spans.add("req "+className(class), phase, 0, t0, t1)
			}
		}
		if w.mixed() {
			out.pooled["transport.rtt_p50_us."+className(class)] = lat
		}
		out.latUs = append(out.latUs, lat...)
		out.attempted += int64(w.depth1Ops)
	}
	tr.end(phase)

	// Throughput phase: every lane's generator keeps its window full.
	phase = tr.begin("windowed phase")
	retries0, timeouts0 := w.cl.Stats.Retries.Load(), w.cl.Stats.Timeouts.Load()
	results := make([]genResult, w.lanes)
	win := openWindow(true)
	var wg sync.WaitGroup
	for g := 0; g < w.lanes; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w.generator(g, w.windowOps/w.lanes, tr, phase, &results[g])
		}(g)
	}
	wg.Wait()
	d := win.close()
	tr.end(phase)
	if err := tr.profileStop(); err != nil {
		return nil, err
	}

	ops := int64(w.windowOps / w.lanes * w.lanes)
	out.fillHost(d, ops)
	out.attempted += ops
	var payload int64
	var submitNs, waitNs []float64
	for _, r := range results {
		out.failed += r.failed
		payload += r.payload
		submitNs = append(submitNs, r.submitNs...)
		waitNs = append(waitNs, r.waitNs...)
	}
	v := out.vals
	v["goodput_mb_s"] = float64(payload) / 1e6 / (float64(d.WallNs) / 1e9)
	v["transport.lo_packets_per_req"] = float64(d.LoPackets) / float64(ops)
	v["transport.lo_bytes_per_req"] = float64(d.LoBytes) / float64(ops)
	v["transport.client.retries"] = float64(w.cl.Stats.Retries.Load() - retries0)
	v["transport.client.timeouts"] = float64(w.cl.Stats.Timeouts.Load() - timeouts0)
	v["transport.client.inflight_peak"] = float64(w.cl.Stats.InflightPeak.Load())
	if tr != nil {
		v["transport.client.submit_ns"] = median(submitNs)
		v["transport.client.wait_ns"] = median(waitNs)
	}
	return out, nil
}

// finish reads every page back and compares it with the shadow, which
// verifies every write the run made.
func (w *wireWorkload) finish() (attempted, failed int64, err error) {
	ring := make([]wireOp, w.depth)
	arena := make([]byte, w.depth*pageSize)
	for pg := 0; pg < w.pages; pg++ {
		op := &ring[pg%len(ring)]
		if op.pend != nil {
			failed += w.complete(op)
		}
		*op = wireOp{class: opRead4K, page: pg, buf: arena[(pg%len(ring))*pageSize:][:pageSize]}
		if op.pend, err = w.cl.AsyncRead(w.base+uint64(pg)*pageSize, op.buf); err != nil {
			return 0, 0, fmt.Errorf("read-back: %w", err)
		}
	}
	for i := range ring {
		if ring[i].pend != nil {
			failed += w.complete(&ring[i])
		}
	}
	return int64(w.pages), failed, nil
}
