package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Sentinel errors. ErrDraining also matches StatusError responses carrying
// StatusDraining (via StatusError.Is), so errors.Is(err, ErrDraining)
// works on both paths.
var (
	ErrClosed      = errors.New("transport: client closed")
	ErrBreakerOpen = errors.New("transport: circuit breaker open")
	ErrDraining    = errors.New("transport: server draining")
	ErrDeadline    = errors.New("transport: request deadline exceeded")
)

// ClientStats counts the client's fault-handling outcomes, mirroring the
// simulator's retry.*/health.* counters for the real transport. All fields
// are atomics; Snapshot folds them into transport.* keys for -stats.
type ClientStats struct {
	Sent         atomic.Int64 // requests submitted
	Completed    atomic.Int64 // requests finished (any outcome)
	Retries      atomic.Int64 // requests rewritten onto a fresh connection
	Redials      atomic.Int64 // dial attempts after losing a connection
	Timeouts     atomic.Int64 // requests failed on their deadline budget
	StatusErrors atomic.Int64 // non-OK statuses from the daemon
	DrainingSeen atomic.Int64 // StatusDraining responses
	BreakerTrips atomic.Int64 // circuit breaker open transitions
	BreakerFast  atomic.Int64 // submissions failed fast on an open breaker
	BreakerProbe atomic.Int64 // half-open trial requests admitted
	Recoveries   atomic.Int64 // breaker closed again after a probe succeeded
	LateDrained  atomic.Int64 // late responses for budget-expired tags drained off a live connection
	Inflight     atomic.Int64 // current in-flight requests
	InflightPeak atomic.Int64 // high-water mark of Inflight
}

// Snapshot returns the counters under their transport.* registry names.
func (st *ClientStats) Snapshot() map[string]int64 {
	return map[string]int64{
		"transport.sent":             st.Sent.Load(),
		"transport.completed":        st.Completed.Load(),
		"transport.retries":          st.Retries.Load(),
		"transport.redials":          st.Redials.Load(),
		"transport.timeouts":         st.Timeouts.Load(),
		"transport.status_errors":    st.StatusErrors.Load(),
		"transport.draining":         st.DrainingSeen.Load(),
		"transport.breaker.trips":    st.BreakerTrips.Load(),
		"transport.breaker.fast":     st.BreakerFast.Load(),
		"transport.breaker.probes":   st.BreakerProbe.Load(),
		"transport.breaker.recovers": st.Recoveries.Load(),
		"transport.late_drained":     st.LateDrained.Load(),
		"transport.inflight":         st.Inflight.Load(),
		"transport.inflight.peak":    st.InflightPeak.Load(),
	}
}

func (st *ClientStats) track(d int64) {
	v := st.Inflight.Add(d)
	for {
		peak := st.InflightPeak.Load()
		if v <= peak || st.InflightPeak.CompareAndSwap(peak, v) {
			return
		}
	}
}

// Option configures a Client.
type Option func(*Client)

// WithLanes sets the connection count; requests round-robin across lanes.
func WithLanes(n int) Option {
	return func(c *Client) {
		if n > 0 {
			c.laneCount = n
		}
	}
}

// WithDepth sets the per-lane in-flight cap (the pipeline window).
func WithDepth(n int) Option {
	return func(c *Client) {
		if n > 0 {
			c.depth = n
		}
	}
}

// WithDeadline sets the per-request budget: dialing, waiting for a slot,
// redials and resends all happen inside it.
func WithDeadline(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.deadline = d
		}
	}
}

// WithRedials caps consecutive failed dial attempts before the lane fails
// its pending requests (their budgets usually expire first). 0 disables
// reconnection entirely.
func WithRedials(n int) Option {
	return func(c *Client) { c.redials = n }
}

// WithBreaker arms the circuit breaker: threshold consecutive
// transport-level failures open it for cooldown, during which submissions
// fail fast with ErrBreakerOpen; afterwards a single trial request probes
// the server, closing the breaker on success. threshold <= 0 disables it.
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(c *Client) {
		c.brkThreshold = threshold
		c.brkCooldown = cooldown
	}
}

// Breaker states.
const (
	brkClosed = iota
	brkOpen
	brkHalfOpen
)

// Client is a computing-node-side connection to a memory node daemon,
// speaking protocol v2: each lane is one TCP connection carrying up to
// `depth` tagged requests at once, completed out of order by the server.
// A lost connection is redialed with jittered exponential backoff and the
// still-pending requests are resent by tag — safe because every operation
// except ALLOC is idempotent (a resent ALLOC may leak its first range on
// the daemon; it is a setup-path call, so the leak is bounded and the
// returned range is always valid). Every request carries a deadline
// budget; when it expires the request fails with a bounded error instead
// of blocking. A circuit breaker mirrors core.HealthMonitor: consecutive
// transport failures trip it, submissions then fail fast, and a probe
// closes it once the daemon answers again.
type Client struct {
	addr string
	pkey uint32

	deadline  time.Duration
	depth     int
	laneCount int
	redials   int

	brkThreshold int
	brkCooldown  time.Duration
	brkMu        sync.Mutex
	brkState     int
	brkFails     int
	brkOpenUntil time.Time

	lanes    []*lane
	nextLane atomic.Uint32

	closed    atomic.Bool
	closedCh  chan struct{}
	closeOnce sync.Once

	Stats ClientStats
}

// call is one in-flight request. Instances are pooled; seg1/buf1 back the
// common single-segment case without allocating.
type call struct {
	op       byte
	segs     []Seg
	payload  [][]byte // write sources
	bufs     [][]byte // read destinations
	scratch  [16]byte // ALLOC/INFO response payload
	tag      uint64
	deadline time.Time
	done     chan struct{} // buffered(1); completion sends exactly once
	status   byte
	err      error

	seg1 [1]Seg
	buf1 [1][]byte
}

var callPool = sync.Pool{New: func() any {
	return &call{done: make(chan struct{}, 1)}
}}

func getCall() *call {
	cl := callPool.Get().(*call)
	cl.err = nil
	cl.status = StatusOK
	cl.payload = nil
	cl.bufs = nil
	return cl
}

// lane is one connection plus its pipeline bookkeeping.
type lane struct {
	c *Client

	mu      sync.Mutex
	conn    net.Conn
	w       *bufio.Writer
	gen     uint64
	pending map[uint64]*call
	expired map[uint64]int // budget-expired tags → OK-payload bytes still owed on this conn
	nextTag uint64
	dialing bool
	readers sync.WaitGroup // live reader goroutines (at most one per generation)

	slots    chan struct{} // depth tokens; a token per in-flight call
	submitMu sync.Mutex    // fairness: batch slot acquisition is atomic
	wake     chan struct{} // nudges an idle reader
}

// Dial connects to a memory node daemon. The first lane is dialed eagerly
// so an unreachable daemon fails here; further lanes dial on first use.
func Dial(addr string, pkey uint32, opts ...Option) (*Client, error) {
	c := &Client{
		addr:      addr,
		pkey:      pkey,
		deadline:  DefaultDeadline,
		depth:     32,
		laneCount: 1,
		redials:   DefaultRedials,
		closedCh:  make(chan struct{}),
	}
	for _, o := range opts {
		o(c)
	}
	c.lanes = make([]*lane, c.laneCount)
	for i := range c.lanes {
		l := &lane{
			c:       c,
			pending: make(map[uint64]*call),
			expired: make(map[uint64]int),
			slots:   make(chan struct{}, c.depth),
			wake:    make(chan struct{}, 1),
		}
		for k := 0; k < c.depth; k++ {
			l.slots <- struct{}{}
		}
		c.lanes[i] = l
	}
	if err := c.lanes[0].dial(); err != nil {
		return nil, err
	}
	return c, nil
}

// Close tears every lane down and fails all pending requests. Pending
// calls are failed only after the lane's reader has exited: the reader
// copies response payloads straight into caller buffers, so completing a
// call while it is still copying would return a buffer to the caller
// that is being concurrently written.
func (c *Client) Close() error {
	c.closed.Store(true)
	c.closeOnce.Do(func() { close(c.closedCh) })
	for _, l := range c.lanes {
		l.mu.Lock()
		if l.conn != nil {
			l.conn.Close()
			l.conn, l.w = nil, nil
			l.gen++
		}
		l.mu.Unlock()
		l.readers.Wait() // reader exits promptly: its conn is closed
		l.mu.Lock()
		for tag, cl := range l.pending {
			delete(l.pending, tag)
			l.finish(cl, 0, ErrClosed)
		}
		l.mu.Unlock()
	}
	return nil
}

// dial establishes the lane's connection and starts its reader.
// Callers must not hold l.mu.
func (l *lane) dial() error {
	conn, err := net.DialTimeout("tcp", l.c.addr, DefaultDialTimeout)
	if err != nil {
		return err
	}
	if _, err := conn.Write(helloMagic[:]); err != nil {
		conn.Close()
		return err
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	l.mu.Lock()
	l.gen++
	gen := l.gen
	l.conn = conn
	l.w = bufio.NewWriterSize(conn, 64<<10)
	clear(l.expired) // late responses can only arrive on the conn that saw the request
	l.readers.Add(1)
	l.mu.Unlock()
	go l.reader(conn, br, gen)
	return nil
}

// breakerAllow gates a submission through the breaker state machine.
func (c *Client) breakerAllow() error {
	if c.brkThreshold <= 0 {
		return nil
	}
	c.brkMu.Lock()
	defer c.brkMu.Unlock()
	switch c.brkState {
	case brkClosed:
		return nil
	case brkOpen:
		if time.Now().Before(c.brkOpenUntil) {
			c.Stats.BreakerFast.Add(1)
			return ErrBreakerOpen
		}
		c.brkState = brkHalfOpen
		c.Stats.BreakerProbe.Add(1)
		return nil // this request is the probe
	default: // half-open: one probe already in flight
		c.Stats.BreakerFast.Add(1)
		return ErrBreakerOpen
	}
}

// breakerResult feeds a request's transport-level outcome back. Status
// errors count as successes: the daemon answered, so the path is healthy.
func (c *Client) breakerResult(failed bool) {
	if c.brkThreshold <= 0 {
		return
	}
	c.brkMu.Lock()
	defer c.brkMu.Unlock()
	if failed {
		switch c.brkState {
		case brkClosed:
			c.brkFails++
			if c.brkFails >= c.brkThreshold {
				c.brkState = brkOpen
				c.brkOpenUntil = time.Now().Add(c.brkCooldown)
				c.Stats.BreakerTrips.Add(1)
			}
		case brkHalfOpen: // probe failed: reopen
			c.brkState = brkOpen
			c.brkOpenUntil = time.Now().Add(c.brkCooldown)
			c.Stats.BreakerTrips.Add(1)
		}
		return
	}
	if c.brkState == brkHalfOpen {
		c.Stats.Recoveries.Add(1)
	}
	c.brkState = brkClosed
	c.brkFails = 0
}

// lane picks the next lane round-robin.
func (c *Client) lane() *lane {
	return c.lanes[int(c.nextLane.Add(1))%len(c.lanes)]
}

// submit registers the call on a lane and writes its frame (or kicks the
// redialer if the lane is down). It blocks while the pipeline window is
// full, but never past the call's deadline.
func (c *Client) submit(l *lane, cl *call) error {
	if c.closed.Load() {
		return ErrClosed
	}
	if err := c.breakerAllow(); err != nil {
		return err
	}
	cl.deadline = time.Now().Add(c.deadline)
	if err := l.acquire(1, cl.deadline); err != nil {
		c.breakerResult(true)
		return err
	}
	c.Stats.Sent.Add(1)
	c.Stats.track(1)
	l.mu.Lock()
	cl.tag = l.nextTag
	l.nextTag++
	l.pending[cl.tag] = cl
	l.writeOrKickLocked(cl)
	l.mu.Unlock()
	l.nudge()
	return nil
}

// acquire takes n pipeline slots, bounded by the deadline. submitMu makes
// multi-slot (doorbell) acquisition atomic so two batches cannot deadlock
// each other holding half their slots.
func (l *lane) acquire(n int, deadline time.Time) error {
	l.submitMu.Lock()
	defer l.submitMu.Unlock()
	var timer *time.Timer
	for k := 0; k < n; k++ {
		select {
		case <-l.slots: // fast path: no timer allocation
			continue
		default:
		}
		if timer == nil {
			timer = time.NewTimer(time.Until(deadline))
			defer timer.Stop()
		}
		select {
		case <-l.slots:
		case <-l.c.closedCh:
			l.release(k)
			return ErrClosed
		case <-timer.C:
			l.release(k)
			l.c.Stats.Timeouts.Add(1)
			return fmt.Errorf("transport: %s: pipeline full past budget: %w", l.c.addr, ErrDeadline)
		}
	}
	return nil
}

func (l *lane) release(n int) {
	for k := 0; k < n; k++ {
		l.slots <- struct{}{}
	}
}

// writeOrKickLocked writes the call's frame if the lane is connected and
// flushes; on a write error or a down lane it starts the redialer, which
// will resend the (already registered) call. Caller holds l.mu.
func (l *lane) writeOrKickLocked(cl *call) {
	if l.conn != nil {
		if err := l.writeCallLocked(cl); err == nil {
			err = l.w.Flush()
			if err == nil {
				return
			}
		}
		l.conn.Close()
		l.conn, l.w = nil, nil
		l.gen++
	}
	if !l.dialing {
		l.dialing = true
		go l.redial()
	}
}

// writeCallLocked frames one call onto the lane's writer (no flush).
func (l *lane) writeCallLocked(cl *call) error {
	var hdr [reqHdrLen]byte
	hdr[0] = cl.op
	binary.LittleEndian.PutUint32(hdr[1:5], l.c.pkey)
	binary.LittleEndian.PutUint64(hdr[5:13], cl.tag)
	binary.LittleEndian.PutUint16(hdr[13:15], uint16(len(cl.segs)))
	if _, err := l.w.Write(hdr[:]); err != nil {
		return err
	}
	return l.writeBodyLocked(cl)
}

// writeBodyLocked frames the segments and, for writes, streams the payload
// buffers straight onto the wire — no intermediate copy.
func (l *lane) writeBodyLocked(cl *call) error {
	var segHdr [segHdrLen]byte
	for _, sg := range cl.segs {
		binary.LittleEndian.PutUint64(segHdr[:8], sg.Off)
		binary.LittleEndian.PutUint32(segHdr[8:12], sg.Len)
		if _, err := l.w.Write(segHdr[:]); err != nil {
			return err
		}
	}
	for _, p := range cl.payload {
		if _, err := l.w.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// nudge wakes the lane's reader if it is idle.
func (l *lane) nudge() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// finish completes a call exactly once. Caller holds l.mu and has already
// removed it from pending.
func (l *lane) finish(cl *call, status byte, err error) {
	cl.status = status
	cl.err = err
	cl.done <- struct{}{}
	l.slots <- struct{}{}
	l.c.Stats.track(-1)
	l.c.Stats.Completed.Add(1)
}

// readQuantum is the reader's wake-up granularity while blocked on the
// socket: on each quantum it sweeps for requests whose budget ran out. It
// bounds deadline overshoot without scanning the pending set per response.
const readQuantum = 50 * time.Millisecond

var errMute = errors.New("no response within budget")

// reader demultiplexes one connection's responses by tag until the
// connection dies. It blocks in quanta: a clean timeout between frames
// just sweeps expired budgets and keeps reading; a timeout mid-frame means
// the stream position is unknown, so the connection is torn down and the
// survivors resent.
func (l *lane) reader(conn net.Conn, br *bufio.Reader, gen uint64) {
	defer l.readers.Done()
	var hdr [respHdrLen]byte
	for {
		l.mu.Lock()
		if l.gen != gen {
			l.mu.Unlock()
			return
		}
		n := len(l.pending)
		l.mu.Unlock()
		if n == 0 {
			select {
			case <-l.wake:
				continue
			case <-l.c.closedCh:
				return
			}
		}
		conn.SetReadDeadline(time.Now().Add(readQuantum))
		if nr, err := io.ReadFull(br, hdr[:]); err != nil {
			var ne net.Error
			if nr == 0 && errors.As(err, &ne) && ne.Timeout() {
				// Clean inter-frame timeout: nothing consumed, the stream
				// is still in sync. Fail overdue budgets, keep reading.
				l.mu.Lock()
				if l.gen != gen {
					l.mu.Unlock()
					return
				}
				l.expireLocked(errMute)
				l.mu.Unlock()
				continue
			}
			l.ioError(conn, gen, err)
			return
		}
		tag := binary.LittleEndian.Uint64(hdr[:8])
		status := hdr[8]
		l.mu.Lock()
		cl := l.pending[tag]
		l.mu.Unlock()
		if cl == nil {
			// Not pending: either a tag whose budget already expired (the
			// server answered late) or a genuine protocol error. Draining
			// the late response keeps the connection alive, so one slow
			// request cannot trigger a teardown that resends everything
			// else in flight.
			l.mu.Lock()
			owed, late := l.expired[tag]
			delete(l.expired, tag)
			l.mu.Unlock()
			if !late {
				l.ioError(conn, gen, fmt.Errorf("transport: response for unknown tag %d", tag))
				return
			}
			l.c.Stats.LateDrained.Add(1)
			if status == StatusOK && owed > 0 {
				conn.SetReadDeadline(time.Now().Add(l.c.deadline + readQuantum))
				if _, err := io.CopyN(io.Discard, br, int64(owed)); err != nil {
					l.ioError(conn, gen, err)
					return
				}
			}
			continue
		}
		if status == StatusOK {
			// The payload follows immediately; give it the full budget (a
			// mid-payload stall is a broken peer, not inter-frame idleness).
			conn.SetReadDeadline(time.Now().Add(l.c.deadline + readQuantum))
			if err := l.readPayload(br, cl); err != nil {
				l.ioError(conn, gen, err)
				return
			}
		}
		l.mu.Lock()
		if _, ok := l.pending[tag]; ok {
			delete(l.pending, tag)
			l.finish(cl, status, nil)
		}
		l.mu.Unlock()
	}
}

// readPayload consumes a successful response's payload into the call's
// destination buffers.
func (l *lane) readPayload(br *bufio.Reader, cl *call) error {
	switch cl.op {
	case OpRead, OpReadV:
		for _, b := range cl.bufs {
			if _, err := io.ReadFull(br, b); err != nil {
				return err
			}
		}
	case OpAlloc:
		if _, err := io.ReadFull(br, cl.scratch[:8]); err != nil {
			return err
		}
	case OpInfo:
		if _, err := io.ReadFull(br, cl.scratch[:16]); err != nil {
			return err
		}
	}
	return nil
}

// ioError tears the connection down after a read failure and hands the
// pending calls to the redialer.
func (l *lane) ioError(conn net.Conn, gen uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.gen != gen {
		return // a newer connection took over already
	}
	l.gen++
	conn.Close()
	l.conn, l.w = nil, nil
	l.expireLocked(err)
	if len(l.pending) > 0 && !l.dialing && !l.c.closed.Load() {
		l.dialing = true
		go l.redial()
	}
}

// expiredTagCap bounds the expired-tag table. Tags are monotonic and
// never reused, so evicting an arbitrary entry can only cause a spurious
// teardown if a response arrives later than expiredTagCap successors —
// a black-holing server, which teardown handles anyway.
const expiredTagCap = 1024

// expireLocked fails every call whose budget has run out. While the
// connection is still up, the expired tag is remembered (with the
// payload length an OK response would carry) so the reader can drain a
// late answer instead of treating it as an unknown tag.
func (l *lane) expireLocked(cause error) {
	now := time.Now()
	for tag, cl := range l.pending {
		if now.After(cl.deadline) {
			delete(l.pending, tag)
			if l.conn != nil {
				if len(l.expired) >= expiredTagCap {
					for t := range l.expired {
						delete(l.expired, t)
						break
					}
				}
				l.expired[tag] = respPayloadLen(cl.op, cl.segs)
			}
			l.c.Stats.Timeouts.Add(1)
			l.finish(cl, 0, fmt.Errorf("transport: %s %s: budget exhausted (%v): %w",
				opName(cl.op), l.c.addr, cause, ErrDeadline))
		}
	}
}

// redial reconnects a lane with jittered exponential backoff and resends
// every still-pending call by tag on the fresh connection. It gives up
// when the pending set drains (all budgets expired) or after the
// configured attempt cap, failing whatever remains.
func (l *lane) redial() {
	backoff := redialBackoffBase
	attempts := 0
	var lastErr error = errors.New("connection lost")
	for {
		if l.c.closed.Load() {
			l.failAllPending(ErrClosed)
			return
		}
		l.mu.Lock()
		l.expireLocked(lastErr)
		if len(l.pending) == 0 {
			l.dialing = false
			l.mu.Unlock()
			return
		}
		l.mu.Unlock()
		if l.c.redials >= 0 && attempts > l.c.redials {
			l.failAllPending(fmt.Errorf("transport: %s: redials exhausted: %w", l.c.addr, lastErr))
			return
		}

		l.c.Stats.Redials.Add(1)
		attempts++
		conn, err := net.DialTimeout("tcp", l.c.addr, DefaultDialTimeout)
		if err == nil {
			_, err = conn.Write(helloMagic[:])
			if err != nil {
				conn.Close()
			}
		}
		if err != nil {
			lastErr = err
			// Half fixed, half jittered: spreads synchronized redialers,
			// like fabric.ReliableQP's backoff. Clamped to the soonest
			// pending budget so a request never overshoots its deadline
			// by a whole backoff period.
			sleep := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
			l.mu.Lock()
			for _, cl := range l.pending {
				if until := time.Until(cl.deadline) + 5*time.Millisecond; until < sleep {
					sleep = until
				}
			}
			l.mu.Unlock()
			if sleep > 0 {
				time.Sleep(sleep)
			}
			backoff *= 2
			if backoff > redialBackoffCap {
				backoff = redialBackoffCap
			}
			continue
		}

		br := bufio.NewReaderSize(conn, 64<<10)
		l.mu.Lock()
		if l.c.closed.Load() { // Close raced the dial: don't leak the conn
			conn.Close()
			l.mu.Unlock()
			l.failAllPending(ErrClosed)
			return
		}
		l.gen++
		gen := l.gen
		l.conn = conn
		l.w = bufio.NewWriterSize(conn, 64<<10)
		clear(l.expired) // stale: they belonged to the previous connection
		resendErr := error(nil)
		for _, cl := range l.pending {
			if resendErr = l.writeCallLocked(cl); resendErr != nil {
				break
			}
			l.c.Stats.Retries.Add(1)
		}
		if resendErr == nil {
			resendErr = l.w.Flush()
		}
		if resendErr != nil {
			lastErr = resendErr
			conn.Close()
			l.conn, l.w = nil, nil
			l.mu.Unlock()
			continue
		}
		l.dialing = false
		l.readers.Add(1)
		l.mu.Unlock()
		go l.reader(conn, br, gen)
		return
	}
}

// failAllPending fails every pending call and retires the redialer.
func (l *lane) failAllPending(err error) {
	l.mu.Lock()
	for tag, cl := range l.pending {
		delete(l.pending, tag)
		l.c.Stats.Timeouts.Add(1)
		l.finish(cl, 0, err)
	}
	l.dialing = false
	l.mu.Unlock()
}

// wait blocks for a call's completion and resolves its outcome.
func (c *Client) wait(cl *call) (status byte, err error) {
	<-cl.done
	status, err = cl.status, cl.err
	if err == nil && status != StatusOK {
		c.Stats.StatusErrors.Add(1)
		if status == StatusDraining {
			c.Stats.DrainingSeen.Add(1)
		}
		err = statusErr(opName(cl.op), status)
	}
	// Transport-level failures feed the breaker; a status error means the
	// daemon answered, which is breaker-wise a success.
	c.breakerResult(cl.err != nil && !errors.Is(cl.err, ErrClosed))
	return status, err
}

// do runs one synchronous request end to end.
func (c *Client) do(cl *call) error {
	if err := c.submit(c.lane(), cl); err != nil {
		callPool.Put(cl)
		return err
	}
	_, err := c.wait(cl)
	callPool.Put(cl)
	return err
}

// Pending is an in-flight asynchronous request.
type Pending struct {
	c  *Client
	cl *call
}

// Wait blocks until the request completes and returns its outcome. It must
// be called exactly once; the destination buffers are not safe to touch
// until it returns.
func (p *Pending) Wait() error {
	_, err := p.c.wait(p.cl)
	callPool.Put(p.cl)
	p.cl = nil
	return err
}

// AsyncRead starts a pipelined READ into p.
func (c *Client) AsyncRead(off uint64, p []byte) (*Pending, error) {
	cl := getCall()
	cl.op = OpRead
	cl.seg1[0] = Seg{Off: off, Len: uint32(len(p))}
	cl.segs = cl.seg1[:1]
	cl.buf1[0] = p
	cl.bufs = cl.buf1[:1]
	if err := c.submit(c.lane(), cl); err != nil {
		callPool.Put(cl)
		return nil, err
	}
	return &Pending{c: c, cl: cl}, nil
}

// AsyncWrite starts a pipelined WRITE of p. The buffer must stay untouched
// until Wait returns (a reconnect may resend it).
func (c *Client) AsyncWrite(off uint64, p []byte) (*Pending, error) {
	cl := getCall()
	cl.op = OpWrite
	cl.seg1[0] = Seg{Off: off, Len: uint32(len(p))}
	cl.segs = cl.seg1[:1]
	cl.buf1[0] = p
	cl.payload = cl.buf1[:1]
	if err := c.submit(c.lane(), cl); err != nil {
		callPool.Put(cl)
		return nil, err
	}
	return &Pending{c: c, cl: cl}, nil
}

// Read performs a one-sided READ into p.
func (c *Client) Read(off uint64, p []byte) error {
	cl := getCall()
	cl.op = OpRead
	cl.seg1[0] = Seg{Off: off, Len: uint32(len(p))}
	cl.segs = cl.seg1[:1]
	cl.buf1[0] = p
	cl.bufs = cl.buf1[:1]
	return c.do(cl)
}

// Write performs a one-sided WRITE of p.
func (c *Client) Write(off uint64, p []byte) error {
	cl := getCall()
	cl.op = OpWrite
	cl.seg1[0] = Seg{Off: off, Len: uint32(len(p))}
	cl.segs = cl.seg1[:1]
	cl.buf1[0] = p
	cl.payload = cl.buf1[:1]
	return c.do(cl)
}

// ReadV performs a vectored READ; bufs[i] receives segs[i].
func (c *Client) ReadV(segs []Seg, bufs [][]byte) error {
	cl := getCall()
	cl.op = OpReadV
	cl.segs = append(cl.segs[:0], segs...)
	cl.bufs = bufs
	return c.do(cl)
}

// WriteV performs a vectored WRITE of bufs to segs. The buffers are
// streamed straight onto the wire — never assembled into one payload — and
// must stay untouched until the call returns.
func (c *Client) WriteV(segs []Seg, bufs [][]byte) error {
	cl := getCall()
	cl.op = OpWriteV
	cl.segs = append(cl.segs[:0], segs...)
	cl.payload = bufs
	return c.do(cl)
}

// Alloc reserves a contiguous range of pages, returning the base offset.
func (c *Client) Alloc(pages uint32) (uint64, error) {
	cl := getCall()
	cl.op = OpAlloc
	cl.seg1[0] = Seg{Off: 0, Len: pages}
	cl.segs = cl.seg1[:1]
	if err := c.submit(c.lane(), cl); err != nil {
		callPool.Put(cl)
		return 0, err
	}
	_, err := c.wait(cl)
	base := binary.LittleEndian.Uint64(cl.scratch[:8])
	callPool.Put(cl)
	if err != nil {
		return 0, err
	}
	return base, nil
}

// Info returns the region size and pages in use.
func (c *Client) Info() (size uint64, inUse uint64, err error) {
	cl := getCall()
	cl.op = OpInfo
	cl.segs = cl.segs[:0]
	if err := c.submit(c.lane(), cl); err != nil {
		callPool.Put(cl)
		return 0, 0, err
	}
	_, err = c.wait(cl)
	size = binary.LittleEndian.Uint64(cl.scratch[:8])
	inUse = binary.LittleEndian.Uint64(cl.scratch[8:16])
	callPool.Put(cl)
	if err != nil {
		return 0, 0, err
	}
	return size, inUse, nil
}

// Ping probes the daemon's health. nil means serving; ErrDraining (via
// errors.Is) means alive but shutting down; anything else means the
// request could not be answered inside its budget.
func (c *Client) Ping() error {
	cl := getCall()
	cl.op = OpPing
	cl.segs = cl.segs[:0]
	return c.do(cl)
}

// BatchOp is one sub-operation of a doorbell frame. Data holds the write
// payload sources or read destinations, one buffer per segment.
type BatchOp struct {
	Op   byte
	Segs []Seg
	Data [][]byte
	Err  error // per-op outcome, filled by Batch
}

// Batch issues the operations as one doorbell frame — a single header
// carrying every sub-op, written with one flush, the wire twin of
// fabric.QP.Submit — then waits for all of them. Each sub-op completes
// (possibly out of order) under its own tag; per-op outcomes land in
// ops[i].Err and the first failure is returned. On a reconnect, unfinished
// sub-ops are resent individually.
func (c *Client) Batch(ops []BatchOp) error {
	if len(ops) == 0 {
		return nil
	}
	if len(ops) > MaxBatchOps {
		return fmt.Errorf("transport: batch of %d exceeds MaxBatchOps (%d)", len(ops), MaxBatchOps)
	}
	if c.closed.Load() {
		return ErrClosed
	}
	if err := c.breakerAllow(); err != nil {
		return err
	}
	l := c.lane()
	deadline := time.Now().Add(c.deadline)
	if err := l.acquire(len(ops), deadline); err != nil {
		c.breakerResult(true)
		return err
	}
	calls := make([]*call, len(ops))
	l.mu.Lock()
	tag0 := l.nextTag
	for i := range ops {
		cl := getCall()
		cl.op = ops[i].Op
		cl.segs = append(cl.segs[:0], ops[i].Segs...)
		switch ops[i].Op {
		case OpWrite, OpWriteV:
			cl.payload = ops[i].Data
		case OpRead, OpReadV:
			cl.bufs = ops[i].Data
		}
		cl.deadline = deadline
		cl.tag = l.nextTag
		l.nextTag++
		l.pending[cl.tag] = cl
		calls[i] = cl
	}
	c.Stats.Sent.Add(int64(len(ops)))
	c.Stats.track(int64(len(ops)))
	l.writeBatchLocked(tag0, calls)
	l.mu.Unlock()
	l.nudge()

	var first error
	for i, cl := range calls {
		_, err := c.wait(cl)
		ops[i].Err = err
		callPool.Put(cl)
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// writeBatchLocked frames the doorbell: one batch header, then every
// sub-op, then a single flush. On failure the connection is torn down and
// the redialer resends the registered calls as individual frames.
func (l *lane) writeBatchLocked(tag0 uint64, calls []*call) {
	if l.conn == nil {
		if !l.dialing {
			l.dialing = true
			go l.redial()
		}
		return
	}
	var hdr [reqHdrLen]byte
	hdr[0] = OpBatch
	binary.LittleEndian.PutUint32(hdr[1:5], l.c.pkey)
	binary.LittleEndian.PutUint64(hdr[5:13], tag0)
	binary.LittleEndian.PutUint16(hdr[13:15], uint16(len(calls)))
	err := error(nil)
	if _, err = l.w.Write(hdr[:]); err == nil {
		var sub [subHdrLen]byte
		for _, cl := range calls {
			sub[0] = cl.op
			binary.LittleEndian.PutUint16(sub[1:3], uint16(len(cl.segs)))
			if _, err = l.w.Write(sub[:]); err != nil {
				break
			}
			if err = l.writeBodyLocked(cl); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = l.w.Flush()
	}
	if err != nil {
		l.conn.Close()
		l.conn, l.w = nil, nil
		l.gen++
		if !l.dialing {
			l.dialing = true
			go l.redial()
		}
	}
}
