// Package fabric models the RDMA network between the computing node and the
// memory node: one-sided READ/WRITE verbs, vectored (scatter/gather)
// variants, per-queue-pair FIFO ordering, and full-duplex link bandwidth
// serialization. Latency constants are calibrated against the paper's
// Figure 2 (a 4 KiB read costs ≈ 0.6 µs more than a 128 B read; a stream of
// pipelined 4 KiB reads sustains ≈ 3.8 GB/s) — see params.go.
//
// The model is intentionally simple but captures the three properties the
// evaluation depends on:
//
//   - base latency vs size: complete = start + OpOverhead +
//     bytes·latency-per-byte + BaseLatency (+ vector overheads);
//   - bandwidth serialization: the link's two directions each have a
//     busy-until horizon; an op occupies its direction for OpOverhead +
//     bytes·occupancy-per-byte, which is smaller than its latency because
//     the NIC pipelines transfer stages (READ payloads arrive on RX, WRITE
//     payloads leave on TX, so cleaner write-back does not steal fetch
//     bandwidth — full duplex);
//   - FIFO per queue pair: a QP never completes ops out of order, which is
//     why DiLOS gives every module on every core its own QP (§4.5).
//
// Data movement happens at issue time (the simulation resumes exactly one
// process at a time, and every remote page slot has a single owner, so
// issue-time snapshots are indistinguishable from completion-time copies).
// A corollary the failure model leans on: a failed op's outcome is also
// known at issue time (Op.Err is set before the op "completes"), so
// daemons that must not act on unconfirmed writes can check it without
// waiting.
//
// Failure is a first-class outcome: a Link may carry a chaos.Injector
// (reliable.go wraps queue pairs with retry/backoff on top), ops complete
// with Op.Err set instead of data, and Store accesses can themselves fail
// (a real TCP backing losing its daemon, a malformed offset).
package fabric

import (
	"fmt"

	"dilos/internal/chaos"
	"dilos/internal/memnode"
	"dilos/internal/sim"
	"dilos/internal/stats"
	"dilos/internal/telemetry"
)

// Store is the remote-memory service a link transfers against. The
// in-process memnode.Node satisfies it; internal/transport provides an
// adapter that satisfies it over a real TCP connection to cmd/memnoded, so
// the entire LibOS stack can keep its data on another machine while the
// simulation supplies the timing. Both paths can fail: bounds errors
// in-process, I/O errors over the wire.
type Store interface {
	ReadAt(off uint64, p []byte) error
	WriteAt(off uint64, p []byte) error
}

// Seg is one segment of a vectored RDMA request.
type Seg struct {
	Off uint64 // memory-node region offset
	Buf []byte // local buffer (destination for reads, source for writes)
}

// OpKind distinguishes read from write ops (direction of payload flow).
type OpKind uint8

const (
	OpRead OpKind = iota
	OpWrite
)

// Op is an asynchronous one-sided operation. It is complete at CompleteAt;
// a process observes completion by Wait (blocking) or Done (polling).
// A failed op carries Err: no data moved, and the completion time models
// the failure-detection (timeout) latency. Because the simulation moves
// data at issue time, Err is populated at issue time too — Wait only
// supplies the timing.
type Op struct {
	Kind       OpKind
	IssuedAt   sim.Time
	CompleteAt sim.Time
	Bytes      int
	Segs       int
	Err        error
}

// Wait blocks p until the op completes.
func (o *Op) Wait(p *sim.Proc) { p.WaitUntil(o.CompleteAt) }

// Done reports whether the op has completed as of `now`.
func (o *Op) Done(now sim.Time) bool { return now >= o.CompleteAt }

// Link is the full-duplex connection between a computing node's RNIC and a
// memory node. rx carries READ payloads toward the computing node; tx
// carries WRITE payloads away from it.
type Link struct {
	P     Params
	store Store
	key   uint32

	// NodeID names the memory node this link reaches (for the chaos
	// injector's per-node crash schedule).
	NodeID int
	// Chaos, when set, is consulted once per op and may fail, delay, or
	// stall it. With Chaos nil a Store error is a programming bug and
	// panics, preserving the pre-chaos contract for systems that never
	// opted into failure handling.
	Chaos *chaos.Injector

	rxBusy sim.Time
	txBusy sim.Time

	RxBytes   stats.Counter
	TxBytes   stats.Counter
	RxOps     stats.Counter
	TxOps     stats.Counter
	FailedOps stats.Counter

	// Doorbell-batching instrumentation (QP.Submit / QP.Coalesce).
	Batches       stats.Counter    // doorbells rung (one per Submit call)
	BatchedOps    stats.Counter    // work-queue entries posted through Submit
	CoalescedSegs stats.Counter    // segments merged into a preceding vectored op
	BatchSize     *stats.Histogram // ops per doorbell

	// Optional bandwidth series (nil disables); Figure 12 uses these.
	RxBW *stats.Bandwidth
	TxBW *stats.Bandwidth

	// Tel, when set, records one flight-recorder span per op (issue →
	// completion, Arg = bytes) and per retry backoff on TelTrack.
	Tel      *telemetry.Recorder
	TelTrack int

	// RxBacklog/TxBacklog gauge how far each direction's busy horizon
	// runs ahead of now, in ns — queueing visible to the sampler.
	RxBacklog stats.Gauge
	TxBacklog stats.Gauge
}

// NewLink connects to an in-process memory node with the given parameters.
func NewLink(node *memnode.Node, p Params) *Link {
	return NewLinkOver(node, node.ProtKey, p)
}

// NewLinkOver connects to any Store (e.g. a TCP-backed remote daemon via
// internal/transport) guarded by the given protection key.
func NewLinkOver(store Store, protKey uint32, p Params) *Link {
	return &Link{
		P:             p,
		store:         store,
		key:           protKey,
		RxBytes:       stats.Counter{Name: "link.rx.bytes"},
		TxBytes:       stats.Counter{Name: "link.tx.bytes"},
		RxOps:         stats.Counter{Name: "link.rx.ops"},
		TxOps:         stats.Counter{Name: "link.tx.ops"},
		FailedOps:     stats.Counter{Name: "link.failed.ops"},
		Batches:       stats.Counter{Name: "fabric.batch.doorbells"},
		BatchedOps:    stats.Counter{Name: "fabric.batch.ops"},
		CoalescedSegs: stats.Counter{Name: "fabric.batch.coalesced_segs"},
		BatchSize:     stats.NewHistogram("fabric.batch.size"),
		RxBacklog:     stats.Gauge{Name: "link.rx.backlog_ns"},
		TxBacklog:     stats.Gauge{Name: "link.tx.backlog_ns"},
	}
}

// SampleBacklog refreshes the backlog gauges: how much occupancy each
// direction still has queued past `now`. The telemetry sampler calls
// this every tick.
func (l *Link) SampleBacklog(now sim.Time) {
	rx, tx := l.rxBusy-now, l.txBusy-now
	if rx < 0 {
		rx = 0
	}
	if tx < 0 {
		tx = 0
	}
	l.RxBacklog.Set(int64(rx))
	l.TxBacklog.Set(int64(tx))
}

// QP is a queue pair. DiLOS assigns one per (core, module) so that a page
// fault's fetch is never queued behind prefetcher or cleaner traffic on the
// same software queue (§4.5). FIFO completion order is enforced per QP.
type QP struct {
	link *Link
	Name string
	key  uint32
	last sim.Time // completion horizon for FIFO ordering
	Ops  stats.Counter
}

// NewQP creates a queue pair bound to the link's memory node. The protection
// key must match the node's registered key — the paper's isolation mechanism
// for LibOSes sharing an RNIC.
func (l *Link) NewQP(name string, protKey uint32) (*QP, error) {
	if protKey != l.key {
		return nil, fmt.Errorf("fabric: protection key mismatch for QP %q", name)
	}
	return &QP{link: l, Name: name, key: protKey, Ops: stats.Counter{Name: "qp." + name}}, nil
}

// MustQP is NewQP for setup code where a key mismatch is a programming bug.
func (l *Link) MustQP(name string, protKey uint32) *QP {
	qp, err := l.NewQP(name, protKey)
	if err != nil {
		panic(err)
	}
	return qp
}

// Read issues a one-sided READ of len(dst) bytes from region offset off.
func (q *QP) Read(now sim.Time, off uint64, dst []byte) *Op {
	return q.readV(now, []Seg{{off, dst}})
}

// Write issues a one-sided WRITE of src to region offset off.
func (q *QP) Write(now sim.Time, off uint64, src []byte) *Op {
	return q.writeV(now, []Seg{{off, src}})
}

// ReadV issues a vectored READ. Per the paper's measurement (§6.3),
// vectored requests slow down sharply past MaxFastSegs segments; the cost
// model reflects that, and guides are expected to cap their vectors.
func (q *QP) ReadV(now sim.Time, segs []Seg) *Op { return q.readV(now, segs) }

// WriteV issues a vectored WRITE.
func (q *QP) WriteV(now sim.Time, segs []Seg) *Op { return q.writeV(now, segs) }

func (q *QP) readV(now sim.Time, segs []Seg) *Op {
	return q.issue(now, OpRead, segs, q.link.P.OpOverhead, false)
}

func (q *QP) writeV(now sim.Time, segs []Seg) *Op {
	return q.issue(now, OpWrite, segs, q.link.P.OpOverhead, false)
}

// Req is one work-queue entry of a batched submission (QP.Submit): a read
// or write over one or more segments.
type Req struct {
	Kind OpKind
	Segs []Seg
}

// Submit posts a batch of requests through a single doorbell. The first
// work-queue entry pays the full OpOverhead (MMIO doorbell + DMA setup);
// every subsequent entry arrives in the same WQE chain and pays only the
// cheaper per-WQE cost (Params.BatchWQE) — the amortization that lets Leap
// issue a whole prefetch window at once. Everything else matches per-op
// submission: chaos decisions are drawn once per op in batch order, data
// moves (and Op.Err is known) at issue time, completions keep the QP's
// FIFO order, and each direction's busy horizon advances by every op's
// occupancy. Resulting ops are appended to dst, which callers on the hot
// path reuse as scratch.
func (q *QP) Submit(now sim.Time, reqs []Req, dst []*Op) []*Op {
	if len(reqs) == 0 {
		return dst
	}
	for i, r := range reqs {
		overhead := q.link.P.OpOverhead
		if i > 0 {
			overhead = q.link.P.BatchWQE
		}
		dst = append(dst, q.issue(now, r.Kind, r.Segs, overhead, true))
	}
	q.link.Batches.Inc()
	q.link.BatchedOps.Add(int64(len(reqs)))
	if q.link.BatchSize != nil {
		q.link.BatchSize.Record(sim.Time(len(reqs)))
	}
	return dst
}

// Coalesce builds a batch from a flat list of same-kind segments, merging
// runs of adjacent entries whose remote ranges are contiguous into single
// vectored requests of at most MaxFastSegs segments (the §6.3 cap). Input
// order is preserved and the returned requests tile segs exactly — the
// i-th request covers the next len(Segs) input entries — so callers can
// map results back to their pages by walking both in order. Requests are
// appended to dst; merged segments are counted on the link.
func (q *QP) Coalesce(kind OpKind, segs []Seg, dst []Req) []Req {
	maxSegs := q.link.P.MaxFastSegs
	if maxSegs < 1 {
		maxSegs = 1
	}
	for i := 0; i < len(segs); {
		j := i + 1
		for j < len(segs) && j-i < maxSegs &&
			segs[j].Off == segs[j-1].Off+uint64(len(segs[j-1].Buf)) {
			j++
		}
		dst = append(dst, Req{Kind: kind, Segs: segs[i:j]})
		q.link.CoalescedSegs.Add(int64(j - i - 1))
		i = j
	}
	return dst
}

// issue runs one op through the full submission path: chaos verdict,
// issue-time data movement, scheduling, and link accounting. overhead is
// the op's share of the doorbell cost (the full OpOverhead for solo ops,
// BatchWQE for non-first batch entries); batched selects the cheaper
// pipelined segment occupancy of a chained WQE.
func (q *QP) issue(now sim.Time, kind OpKind, segs []Seg, overhead sim.Time, batched bool) *Op {
	bytes := 0
	for _, s := range segs {
		bytes += len(s.Buf)
	}
	dec := q.decide(now, kind == OpWrite, bytes, len(segs), overhead, batched)
	var storeErr error
	if !dec.Fail {
		// The chaos verdict precedes the data movement: a failed READ
		// delivers nothing, a failed WRITE reaches no memory.
		for _, s := range segs {
			var err error
			if kind == OpRead {
				err = q.link.store.ReadAt(s.Off, s.Buf)
			} else {
				err = q.link.store.WriteAt(s.Off, s.Buf)
			}
			if err != nil {
				storeErr = err
				break
			}
		}
	}
	busy := &q.link.rxBusy
	if kind == OpWrite {
		busy = &q.link.txBusy
	}
	op := q.schedule(now, bytes, len(segs), overhead, batched, busy, dec, storeErr)
	op.Kind = kind
	if q.link.Tel != nil {
		spanKind := telemetry.KindRead
		if kind == OpWrite {
			spanKind = telemetry.KindWrite
		}
		q.link.Tel.Emit(q.link.TelTrack, telemetry.Span{
			Kind: spanKind, Start: now, End: op.CompleteAt, Arg: uint64(bytes),
		})
	}
	if kind == OpRead {
		q.link.RxOps.Inc()
	} else {
		q.link.TxOps.Inc()
	}
	if op.Err != nil {
		q.link.FailedOps.Inc()
		return op
	}
	if kind == OpRead {
		q.link.RxBytes.Add(int64(bytes))
		if q.link.RxBW != nil {
			q.link.RxBW.Add(op.CompleteAt, int64(bytes))
		}
	} else {
		q.link.TxBytes.Add(int64(bytes))
		if q.link.TxBW != nil {
			q.link.TxBW.Add(op.CompleteAt, int64(bytes))
		}
	}
	return op
}

// latSpec computes the occupancy and latency of an op (shared by the
// normal schedule and the chaos decision, which amplifies latency
// proportionally). overhead is the op's doorbell share; batched ops charge
// extra fast segments at the pipelined SegOverheadBW occupancy while their
// latency keeps the full store-and-forward SegOverhead.
func (q *QP) latSpec(bytes, segs int, overhead sim.Time, batched bool) (occ, lat sim.Time) {
	var segOcc, segLat sim.Time
	for s := 1; s < segs; s++ {
		if s < q.link.P.MaxFastSegs {
			segLat += q.link.P.SegOverhead
			if batched {
				segOcc += q.link.P.SegOverheadBW
			} else {
				segOcc += q.link.P.SegOverhead
			}
		} else {
			segLat += q.link.P.SegOverheadSlow
			segOcc += q.link.P.SegOverheadSlow
		}
	}
	occ = overhead + sim.Time(int64(bytes)*q.link.P.PicosPerByteBW/1000) + segOcc
	lat = overhead + sim.Time(int64(bytes)*q.link.P.PicosPerByte/1000) + segLat
	return occ, lat
}

// decide consults the link's chaos injector, if any.
func (q *QP) decide(now sim.Time, write bool, bytes, segs int, overhead sim.Time, batched bool) chaos.Decision {
	if q.link.Chaos == nil {
		return chaos.Decision{}
	}
	_, lat := q.latSpec(bytes, segs, overhead, batched)
	return q.link.Chaos.Decide(now, q.link.NodeID, write, bytes, lat+q.link.P.BaseLatency)
}

// schedule computes the op's completion time: it occupies the direction's
// link from max(now, busy horizon) for OpOverhead + transfer time
// (+ vector segment overheads), then completes after the base latency
// (+ the TCP emulation delay, if configured). An injected stall pushes the
// QP's FIFO horizon first; a failed op skips the link occupancy (nothing
// was transferred) and completes with its error after the detection
// latency.
func (q *QP) schedule(now sim.Time, bytes, segs int, overhead sim.Time, batched bool, busy *sim.Time, dec chaos.Decision, storeErr error) *Op {
	if segs < 1 {
		panic("fabric: empty vector")
	}
	if storeErr != nil && q.link.Chaos == nil {
		// A system that never opted into failure handling must not limp
		// on silently with a poisoned op.
		panic(fmt.Sprintf("fabric: store access failed: %v", storeErr))
	}
	if dec.Stall > 0 {
		stalled := now + dec.Stall
		if stalled > q.last {
			q.last = stalled
		}
	}
	if dec.Fail {
		complete := now + dec.FailAfter
		if complete < q.last {
			complete = q.last // FIFO per QP, failures included
		}
		q.last = complete
		q.Ops.Inc()
		return &Op{IssuedAt: now, CompleteAt: complete, Bytes: bytes, Segs: segs, Err: dec.Err}
	}
	start := now
	if *busy > start {
		start = *busy
	}
	occ, lat := q.latSpec(bytes, segs, overhead, batched)
	*busy = start + occ
	complete := start + lat + q.link.P.BaseLatency + q.link.P.TCPExtra + dec.Extra
	if complete < q.last {
		complete = q.last // FIFO per QP
	}
	q.last = complete
	q.Ops.Inc()
	return &Op{IssuedAt: now, CompleteAt: complete, Bytes: bytes, Segs: segs, Err: storeErr}
}
