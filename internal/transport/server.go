package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dilos/internal/memnode"
)

// Server tuning. serverInflight bounds the parsed-but-unanswered requests
// per connection (each at most MaxReqBytes), which together with the fixed
// bufio buffers bounds per-connection memory; a client that outruns the
// server blocks in TCP, not in the daemon's heap.
const (
	serverShards   = 64
	serverWorkers  = 4
	serverInflight = 64
	// serverWriteTimeout bounds how long a response write may block on a
	// peer that stopped reading before the connection is abandoned.
	serverWriteTimeout = 60 * time.Second
)

// statusExec marks a parsed request that still needs executing (as opposed
// to one rejected at parse time, whose status byte is already decided).
const statusExec = 0xFF

// Server serves a memory node over TCP with protocol v2 (tagged, pipelined,
// out-of-order completions). The region is guarded by a sharded lock — many
// connections make progress concurrently as long as their segments land on
// different shards — and allocation by a single small mutex (it is a
// setup-path operation).
type Server struct {
	node *memnode.Node

	shardSize uint64
	shards    []sync.RWMutex
	allocMu   sync.Mutex

	ln net.Listener

	connMu   sync.Mutex
	conns    map[net.Conn]struct{}
	closed   bool
	draining atomic.Bool
	handlers sync.WaitGroup

	// Served-op counters. Atomic: every connection increments them.
	Reads, Writes, Pings, Batches atomic.Int64 // executed operations (per segment for R/W)
	Rejects                       atomic.Int64 // non-OK statuses (bad key/op/bounds/too-big)
	DrainedReqs                   atomic.Int64 // requests answered StatusDraining

	// ObserveLatency, when set before Serve, receives every request's
	// server-side execution latency in wall-clock nanoseconds. It is called
	// from connection handler goroutines concurrently — the observer must
	// do its own serialisation (memnoded funnels into its SLO monitor
	// through a channel). Nil costs the request path one predictable
	// branch.
	ObserveLatency func(ns int64)
}

// NewServer wraps a memory node.
func NewServer(node *memnode.Node) *Server {
	size := node.Size()
	shardSize := (size + serverShards - 1) / serverShards
	if shardSize < memnode.HugePageSize {
		shardSize = memnode.HugePageSize
	}
	n := int((size + shardSize - 1) / shardSize)
	if n < 1 {
		n = 1
	}
	return &Server{
		node:      node,
		shardSize: shardSize,
		shards:    make([]sync.RWMutex, n),
		conns:     make(map[net.Conn]struct{}),
	}
}

// Listen binds the server; addr like ":7479". Returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	return ln.Addr().String(), nil
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return err
		}
		s.connMu.Lock()
		if s.closed {
			s.connMu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.handlers.Add(1)
		s.connMu.Unlock()
		go func() {
			defer s.handlers.Done()
			defer s.dropConn(conn)
			s.handle(conn)
		}()
	}
}

// Draining reports whether the server has entered its drain phase.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain performs a graceful shutdown: stop accepting, answer every
// request parsed after this point with StatusDraining (requests already
// parsed off a stream complete normally — the flag is snapshot at parse
// time), wait up to grace for clients to hang up on their own, then close
// the stragglers and wait for every handler goroutine to exit.
//
// Connections that keep probing a draining server are answered, not hung
// up on — PING deliberately reports "alive but shutting down" so health
// monitors can distinguish a drain from a crash. Grace therefore bounds
// how long such lingering connections can hold the daemon open; clients
// that re-route on ErrDraining and close their end let Drain return
// early.
func (s *Server) Drain(grace time.Duration) {
	s.draining.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	deadline := time.Now().Add(grace)
	for time.Now().Before(deadline) {
		s.connMu.Lock()
		n := len(s.conns)
		s.connMu.Unlock()
		if n == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.closeConns()
	s.handlers.Wait()
}

// Close stops the listener and closes every live connection, then waits
// for their handler goroutines — nothing leaks past Close.
func (s *Server) Close() error {
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.closeConns()
	s.handlers.Wait()
	return err
}

func (s *Server) closeConns() {
	s.connMu.Lock()
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
}

func (s *Server) dropConn(conn net.Conn) {
	conn.Close()
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
}

// handle serves one connection. It must open with helloMagic; any other
// opening is closed unanswered.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	var hello [4]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil || hello != helloMagic {
		return
	}
	s.serveV2(conn, br)
}

// request is one parsed request plus its response frame, recycled through
// a per-connection free list so the hot path allocates nothing.
type request struct {
	tag      uint64
	op       byte
	pkey     uint32
	status   byte // statusExec, or a parse-time rejection
	draining bool // drain flag snapshot at parse time (see Drain)
	segs     []Seg
	buf      []byte // write payload (reused)
	out      []byte // response frame [tag][status][payload] (reused)
}

// growTo returns b resized to n bytes, reusing its capacity when possible.
func growTo(b []byte, n int) []byte {
	if cap(b) < n {
		nb := make([]byte, n)
		copy(nb, b)
		return nb
	}
	return b[:n]
}

// serveV2 runs the pipelined protocol on one connection: a reader parses
// frames into pooled requests, a small worker pool executes them under the
// region shard locks (hence out-of-order completions), and a writer
// serializes the tagged responses, flushing when its queue runs dry — the
// response-side doorbell.
func (s *Server) serveV2(conn net.Conn, br *bufio.Reader) {
	free := make(chan *request, serverInflight)
	reqs := make(chan *request, serverInflight)
	out := make(chan *request, serverInflight)
	for i := 0; i < serverInflight; i++ {
		free <- &request{}
	}

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		bw := bufio.NewWriterSize(conn, 64<<10)
		dead := false
		for rq := range out {
			if !dead {
				conn.SetWriteDeadline(time.Now().Add(serverWriteTimeout))
				_, err := bw.Write(rq.out)
				if err == nil && len(out) == 0 {
					err = bw.Flush()
				}
				if err != nil {
					conn.Close()
					dead = true
				}
			}
			free <- rq
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < serverWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rq := range reqs {
				s.execute(rq)
				out <- rq
			}
		}()
	}

	s.readLoopV2(br, free, reqs)
	close(reqs)
	wg.Wait()
	close(out)
	<-writerDone
}

func (s *Server) readLoopV2(br *bufio.Reader, free, reqs chan *request) {
	var hdr [reqHdrLen]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		op := hdr[0]
		pkey := binary.LittleEndian.Uint32(hdr[1:5])
		tag := binary.LittleEndian.Uint64(hdr[5:13])
		nsegs := int(binary.LittleEndian.Uint16(hdr[13:15]))
		if op == OpBatch {
			// The nsegs field carries the sub-op count. An oversized batch
			// is a protocol violation we cannot answer per-op, so it closes
			// the connection.
			if nsegs > MaxBatchOps {
				return
			}
			s.Batches.Add(1)
			ok := true
			for k := 0; k < nsegs && ok; k++ {
				var sub [subHdrLen]byte
				if _, err := io.ReadFull(br, sub[:]); err != nil {
					return
				}
				if sub[0] == OpBatch { // no nesting: the body shape is unknowable
					return
				}
				// Sub-ops are restricted to READ/WRITE/READV/WRITEV/PING
				// (wire.go): a smuggled ALLOC would leak its range on every
				// resend. The body still parses generically, so answer
				// StatusBadOp per-op and keep the stream usable.
				force := byte(statusExec)
				if !batchSubOpOK(sub[0]) {
					force = StatusBadOp
				}
				ok = s.readOne(br, free, reqs, sub[0], pkey, tag+uint64(k),
					int(binary.LittleEndian.Uint16(sub[1:3])), force)
			}
			if !ok {
				return
			}
			continue
		}
		if !s.readOne(br, free, reqs, op, pkey, tag, nsegs, statusExec) {
			return
		}
	}
}

// batchSubOpOK reports whether op may ride inside a doorbell frame: the
// wire contract restricts sub-ops to the idempotent data-path set.
func batchSubOpOK(op byte) bool {
	switch op {
	case OpRead, OpWrite, OpReadV, OpWriteV, OpPing:
		return true
	}
	return false
}

// readOne parses one request body off the stream into a pooled request and
// queues it for execution. Malformed requests (too many segments, segments
// or payloads beyond the caps) are fully consumed — discarded, never
// buffered — and answered with a status byte so the stream stays usable.
// status is statusExec for a request that should execute, or a parse-time
// rejection decided by the caller (still consumes the declared body).
// Only a broken stream returns false.
func (s *Server) readOne(br *bufio.Reader, free, reqs chan *request, op byte, pkey uint32, tag uint64, nsegs int, status byte) bool {
	rq := <-free
	rq.tag, rq.op, rq.pkey, rq.status = tag, op, pkey, status
	rq.draining = s.draining.Load()
	rq.segs = rq.segs[:0]
	if err := s.readBody(br, rq, nsegs); err != nil {
		free <- rq
		return false
	}
	reqs <- rq
	return true
}

// readBody reads nsegs segment headers and, for write ops, the payload.
// On a cap violation it sets rq.status to the rejection and discards the
// declared payload to keep the stream in sync.
func (s *Server) readBody(br *bufio.Reader, rq *request, nsegs int) error {
	var segHdr [segHdrLen]byte
	total := 0
	reject := byte(statusExec)
	if nsegs > MaxSegs {
		reject = StatusBadOp
	}
	for i := 0; i < nsegs; i++ {
		if _, err := io.ReadFull(br, segHdr[:]); err != nil {
			return err
		}
		off := binary.LittleEndian.Uint64(segHdr[:8])
		length := binary.LittleEndian.Uint32(segHdr[8:12])
		if length > MaxSegLen && reject == statusExec {
			reject = StatusTooBig
		}
		total += int(length)
		if reject == statusExec {
			rq.segs = append(rq.segs, Seg{Off: off, Len: length})
		}
	}
	if total > MaxReqBytes && reject == statusExec {
		reject = StatusTooBig
	}
	isWrite := rq.op == OpWrite || rq.op == OpWriteV
	if isWrite {
		if reject != statusExec {
			if _, err := io.CopyN(io.Discard, br, int64(total)); err != nil {
				return err
			}
		} else {
			rq.buf = growTo(rq.buf, total)
			if _, err := io.ReadFull(br, rq.buf); err != nil {
				return err
			}
		}
	}
	if reject != statusExec {
		rq.status = reject
		rq.segs = rq.segs[:0]
	}
	return nil
}

// execute resolves a request into its response frame.
func (s *Server) execute(rq *request) {
	var t0 time.Time
	if s.ObserveLatency != nil {
		t0 = time.Now()
	}
	rq.out = growTo(rq.out, respHdrLen)
	status := rq.status
	if status == statusExec {
		status = s.run(rq)
	}
	if s.ObserveLatency != nil {
		s.ObserveLatency(time.Since(t0).Nanoseconds())
	}
	if status != StatusOK {
		rq.out = rq.out[:respHdrLen]
		if status != StatusDraining {
			s.Rejects.Add(1)
		}
	}
	binary.LittleEndian.PutUint64(rq.out[:8], rq.tag)
	rq.out[8] = status
}

// shardSpan gives the closed shard-index interval covering the segments.
func (s *Server) shardSpan(segs []Seg) (lo, hi int) {
	lo, hi = int(segs[0].Off/s.shardSize), 0
	for _, sg := range segs {
		a := int(sg.Off / s.shardSize)
		b := int((sg.Off + uint64(sg.Len) - 1) / s.shardSize)
		if sg.Len == 0 {
			b = a
		}
		if a < lo {
			lo = a
		}
		if b > hi {
			hi = b
		}
	}
	if hi >= len(s.shards) {
		hi = len(s.shards) - 1
	}
	return lo, hi
}

// run executes a validated request, appending any response payload to
// rq.out past the header. Region access happens under the shard locks
// covering the request's span, taken in ascending order.
func (s *Server) run(rq *request) byte {
	// The drain decision was taken when the request was parsed, so a
	// request already queued when Drain flipped the flag completes
	// normally, as the Drain contract promises.
	if rq.draining {
		s.DrainedReqs.Add(1)
		return StatusDraining
	}
	if rq.pkey != s.node.ProtKey {
		return StatusBadKey
	}
	switch rq.op {
	case OpPing:
		s.Pings.Add(1)
		return StatusOK
	case OpRead, OpReadV:
		if len(rq.segs) == 0 {
			return StatusOK // zero-seg vectored op: nothing to copy, nothing to lock
		}
		for _, sg := range rq.segs {
			if s.node.CheckRange(sg.Off, uint64(sg.Len)) != nil {
				return StatusBounds
			}
		}
		rq.out = growTo(rq.out, respHdrLen+segsBytes(rq.segs))
		lo, hi := s.shardSpan(rq.segs)
		for i := lo; i <= hi; i++ {
			s.shards[i].RLock()
		}
		pos := respHdrLen
		for _, sg := range rq.segs {
			s.node.CopyOut(sg.Off, rq.out[pos:pos+int(sg.Len)])
			pos += int(sg.Len)
		}
		for i := hi; i >= lo; i-- {
			s.shards[i].RUnlock()
		}
		s.Reads.Add(int64(len(rq.segs)))
		return StatusOK
	case OpWrite, OpWriteV:
		if len(rq.segs) == 0 {
			return StatusOK
		}
		for _, sg := range rq.segs {
			if s.node.CheckRange(sg.Off, uint64(sg.Len)) != nil {
				return StatusBounds
			}
		}
		lo, hi := s.shardSpan(rq.segs)
		for i := lo; i <= hi; i++ {
			s.shards[i].Lock()
		}
		pos := 0
		for _, sg := range rq.segs {
			s.node.CopyIn(sg.Off, rq.buf[pos:pos+int(sg.Len)])
			pos += int(sg.Len)
		}
		for i := hi; i >= lo; i-- {
			s.shards[i].Unlock()
		}
		s.Writes.Add(int64(len(rq.segs)))
		return StatusOK
	case OpAlloc:
		// segs[0].Len carries the page count.
		if len(rq.segs) != 1 {
			return StatusBadOp
		}
		s.allocMu.Lock()
		base, err := s.node.AllocRange(uint64(rq.segs[0].Len))
		s.allocMu.Unlock()
		if err != nil {
			return StatusNoSpace
		}
		rq.out = growTo(rq.out, respHdrLen+8)
		binary.LittleEndian.PutUint64(rq.out[respHdrLen:], base)
		return StatusOK
	case OpInfo:
		rq.out = growTo(rq.out, respHdrLen+16)
		binary.LittleEndian.PutUint64(rq.out[respHdrLen:respHdrLen+8], s.node.Size())
		binary.LittleEndian.PutUint64(rq.out[respHdrLen+8:], uint64(s.node.PagesInUse()))
		return StatusOK
	default:
		return StatusBadOp
	}
}

// StatusError is a non-OK response from the daemon: the request was
// received, parsed, and rejected (or refused because the daemon is
// draining). The connection stays usable, so the client does not retry
// these.
type StatusError struct {
	Op     string
	Status byte
}

func (e *StatusError) Error() string {
	if e.Status == StatusDraining {
		return fmt.Sprintf("transport: %s refused: server draining", e.Op)
	}
	return fmt.Sprintf("transport: %s failed with status %d", e.Op, e.Status)
}

// Is maps a draining status onto the ErrDraining sentinel so callers can
// errors.Is for it without digging out the status byte.
func (e *StatusError) Is(target error) bool {
	return target == ErrDraining && e.Status == StatusDraining
}

func statusErr(op string, status byte) error {
	if status == StatusOK {
		return nil
	}
	return &StatusError{Op: op, Status: status}
}

func opName(op byte) string {
	switch op {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpReadV:
		return "readv"
	case OpWriteV:
		return "writev"
	case OpAlloc:
		return "alloc"
	case OpInfo:
		return "info"
	case OpPing:
		return "ping"
	case OpBatch:
		return "batch"
	}
	return fmt.Sprintf("op%d", op)
}
