package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"dilos/internal/memnode"
)

// --- protocol v2 features -------------------------------------------------

func TestPingAndDrainStatus(t *testing.T) {
	srv, addr, _ := startServer(t)
	c, err := Dial(addr, 0xbeef)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping against a healthy server: %v", err)
	}
	// Enter the drain phase: new requests must come back StatusDraining,
	// surfaced as ErrDraining, on a connection that stays usable.
	done := make(chan struct{})
	go func() { srv.Drain(2 * time.Second); close(done) }()
	for srv.Draining() == false {
		time.Sleep(time.Millisecond)
	}
	err = c.Ping()
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("ping during drain = %v, want ErrDraining", err)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Status != StatusDraining {
		t.Fatalf("drain error is not a StatusDraining StatusError: %v", err)
	}
	if err := c.Write(0, []byte{1}); !errors.Is(err, ErrDraining) {
		t.Fatalf("write during drain = %v, want ErrDraining", err)
	}
	if got := srv.DrainedReqs.Load(); got < 2 {
		t.Fatalf("DrainedReqs = %d, want >= 2", got)
	}
	c.Close() // let Drain finish inside its grace window
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not finish after the last client hung up")
	}
}

func TestPipelinedOutOfOrderCompletions(t *testing.T) {
	_, addr, _ := startServer(t)
	c, err := Dial(addr, 0xbeef, WithDepth(64))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	base, err := c.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	// Many in-flight tagged requests on one connection; each lands in its
	// own page so out-of-order execution cannot alias.
	const n = 48
	pend := make([]*Pending, n)
	bufs := make([][]byte, n)
	for i := 0; i < n; i++ {
		buf := bytes.Repeat([]byte{byte(i + 1)}, 512)
		p, err := c.AsyncWrite(base+uint64(i)*memnode.PageSize, buf)
		if err != nil {
			t.Fatal(err)
		}
		pend[i], bufs[i] = p, buf
	}
	for i, p := range pend {
		if err := p.Wait(); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		got := make([]byte, 512)
		p, err := c.AsyncRead(base+uint64(i)*memnode.PageSize, got)
		if err != nil {
			t.Fatal(err)
		}
		pend[i] = p
		bufs[i] = got
	}
	for i, p := range pend {
		if err := p.Wait(); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		for _, b := range bufs[i] {
			if b != byte(i+1) {
				t.Fatalf("read %d returned another request's data", i)
			}
		}
	}
	if peak := c.Stats.InflightPeak.Load(); peak < 2 {
		t.Fatalf("inflight peak = %d; requests were not pipelined", peak)
	}
}

func TestBatchDoorbell(t *testing.T) {
	_, addr, _ := startServer(t)
	c, err := Dial(addr, 0xbeef)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	base, err := c.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	w1 := bytes.Repeat([]byte{0xaa}, 256)
	w2 := bytes.Repeat([]byte{0xbb}, 256)
	ops := []BatchOp{
		{Op: OpWrite, Segs: []Seg{{base, 256}}, Data: [][]byte{w1}},
		{Op: OpWrite, Segs: []Seg{{base + 4096, 256}}, Data: [][]byte{w2}},
		{Op: OpPing},
	}
	if err := c.Batch(ops); err != nil {
		t.Fatalf("batch: %v", err)
	}
	r1, r2 := make([]byte, 256), make([]byte, 256)
	ops = []BatchOp{
		{Op: OpRead, Segs: []Seg{{base, 256}}, Data: [][]byte{r1}},
		{Op: OpRead, Segs: []Seg{{base + 4096, 256}}, Data: [][]byte{r2}},
	}
	if err := c.Batch(ops); err != nil {
		t.Fatalf("batch read: %v", err)
	}
	if !bytes.Equal(r1, w1) || !bytes.Equal(r2, w2) {
		t.Fatal("batch data mismatch")
	}
	// Per-op outcomes: one bad segment must not fail its neighbours.
	ops = []BatchOp{
		{Op: OpRead, Segs: []Seg{{^uint64(0) - 2, 8}}, Data: [][]byte{make([]byte, 8)}},
		{Op: OpRead, Segs: []Seg{{base, 256}}, Data: [][]byte{r1}},
	}
	err = c.Batch(ops)
	var se *StatusError
	if !errors.As(err, &se) || se.Status != StatusBounds {
		t.Fatalf("batch with bad op: err = %v, want StatusBounds", err)
	}
	if ops[0].Err == nil || ops[1].Err != nil {
		t.Fatalf("per-op outcomes wrong: %v / %v", ops[0].Err, ops[1].Err)
	}
}

// TestNoHelloIsClosed: a connection that opens with a v1 READ frame
// instead of helloMagic gets no response and is closed, and the server
// keeps serving v2 clients afterwards.
func TestNoHelloIsClosed(t *testing.T) {
	_, addr, _ := startServer(t)
	c, err := Dial(addr, 0xbeef)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	base, err := c.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// v1 READ: [op u8][pkey u32][nsegs u16] then [off u64][len u32].
	frame := make([]byte, 7+12)
	frame[0] = OpRead
	binary.LittleEndian.PutUint32(frame[1:5], 0xbeef)
	binary.LittleEndian.PutUint16(frame[5:7], 1)
	binary.LittleEndian.PutUint64(frame[7:15], base)
	binary.LittleEndian.PutUint32(frame[15:19], 64)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	// The close arrives as EOF (or a reset, should the server close with
	// frame bytes still unread); a deadline expiry means it never came.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 128)); n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("v1 opening answered %d bytes (err %v), want a close with no response", n, err)
	}

	want := bytes.Repeat([]byte{0x42}, 64)
	if err := c.Write(base, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := c.Read(base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("v2 round trip mismatch after a rejected connection")
	}
}

// --- failure matrix -------------------------------------------------------

// TestServerDiesMidExchange kills the connection after the request is on
// the wire but before the response: the client must redial and resend the
// request by tag, completing it on the fresh connection.
func TestServerDiesMidExchange(t *testing.T) {
	node := memnode.New(16<<20, 0xbeef)
	srv := NewServer(node)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		first := true
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if first {
				first = false
				// Read the hello and the first request frame, then die
				// mid-exchange without answering.
				go func() {
					var hello [4]byte
					io.ReadFull(conn, hello[:])
					var hdr [reqHdrLen]byte
					io.ReadFull(conn, hdr[:])
					conn.Close()
				}()
				continue
			}
			go srv.handle(conn)
		}
	}()
	c, err := Dial(ln.Addr().String(), 0xbeef,
		WithDeadline(2*time.Second), WithRedials(5))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("request killed mid-exchange did not recover: %v", err)
	}
	if c.Stats.Retries.Load() == 0 {
		t.Fatal("recovery happened without a resend?")
	}
}

func TestPkeyMismatchIsNotRetried(t *testing.T) {
	_, addr, _ := startServer(t)
	c, err := Dial(addr, 0xdead) // wrong key
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Write(0, []byte{1})
	var se *StatusError
	if !errors.As(err, &se) || se.Status != StatusBadKey {
		t.Fatalf("want StatusBadKey, got %v", err)
	}
	if c.Stats.Redials.Load() != 0 || c.Stats.Retries.Load() != 0 {
		t.Fatalf("status error triggered %d redials / %d resends; must be none",
			c.Stats.Redials.Load(), c.Stats.Retries.Load())
	}
}

// TestMalformedRequestsKeepStreamUsable sends oversized nsegs, an
// oversized segment, and out-of-bounds segments; each must come back as a
// status byte on a connection that then serves a normal request without
// redialing.
func TestMalformedRequestsKeepStreamUsable(t *testing.T) {
	_, addr, _ := startServer(t)
	c, err := Dial(addr, 0xbeef)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	base, err := c.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}

	// Oversized nsegs (> MaxSegs).
	segs := make([]Seg, MaxSegs+1)
	bufs := make([][]byte, MaxSegs+1)
	for i := range segs {
		segs[i] = Seg{base, 1}
		bufs[i] = []byte{1}
	}
	err = c.WriteV(segs, bufs)
	var se *StatusError
	if !errors.As(err, &se) || se.Status != StatusBadOp {
		t.Fatalf("oversized nsegs: want StatusBadOp, got %v", err)
	}

	// Oversized single segment (> MaxSegLen): the server must discard the
	// payload, answer with a status, and keep the stream in sync.
	big := make([]byte, MaxSegLen+1)
	err = c.Write(base, big)
	if !errors.As(err, &se) || se.Status != StatusTooBig {
		t.Fatalf("oversized segment: want StatusTooBig, got %v", err)
	}

	// Out-of-bounds segment.
	err = c.Read(^uint64(0)-2, make([]byte, 8))
	if !errors.As(err, &se) || se.Status != StatusBounds {
		t.Fatalf("oob segment: want StatusBounds, got %v", err)
	}

	// The same connection still serves a valid request, with no redial.
	want := []byte{1, 2, 3}
	if err := c.Write(base, want); err != nil {
		t.Fatalf("stream unusable after malformed requests: %v", err)
	}
	got := make([]byte, 3)
	if err := c.Read(base, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read-back after malformed requests: %v", err)
	}
	if c.Stats.Redials.Load() != 0 {
		t.Fatal("malformed requests caused a redial; they must not")
	}
}

// TestDeadlineBoundsStall asserts the per-request budget is a real bound:
// a server that accepts and never answers fails the request within the
// budget plus scheduling slack, with ErrDeadline in the chain.
func TestDeadlineBoundsStall(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold open, never answer
		}
	}()
	const budget = 300 * time.Millisecond
	c, err := Dial(ln.Addr().String(), 0xbeef,
		WithDeadline(budget), WithRedials(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	err = c.Read(0, make([]byte, 8))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("read against a mute server succeeded")
	}
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("error does not carry ErrDeadline: %v", err)
	}
	if elapsed > 4*budget {
		t.Fatalf("stall %v not bounded by the %v budget", elapsed, budget)
	}
	if c.Stats.Timeouts.Load() == 0 {
		t.Fatal("timeout not counted")
	}
}

func TestCircuitBreaker(t *testing.T) {
	node := memnode.New(16<<20, 0xbeef)
	srv := NewServer(node)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	const cooldown = 200 * time.Millisecond
	c, err := Dial(addr, 0xbeef,
		WithDeadline(150*time.Millisecond), WithRedials(0), WithBreaker(2, cooldown))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// Two consecutive transport failures trip the breaker.
	for i := 0; i < 2; i++ {
		if err := c.Ping(); err == nil {
			t.Fatal("ping succeeded against a closed server")
		}
	}
	if c.Stats.BreakerTrips.Load() == 0 {
		t.Fatal("breaker did not trip")
	}
	// Open breaker fails fast — no dialing, no deadline wait.
	start := time.Now()
	err = c.Ping()
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("want ErrBreakerOpen, got %v", err)
	}
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("open breaker did not fail fast")
	}
	// Restart the server on the same address; after the cooldown a probe
	// closes the breaker again.
	srv2 := NewServer(node)
	for i := 0; ; i++ {
		if _, err = srv2.Listen(addr); err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	go srv2.Serve()
	defer srv2.Close()
	time.Sleep(cooldown)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err = c.Ping(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never recovered: %v", err)
		}
		time.Sleep(cooldown)
	}
	if c.Stats.Recoveries.Load() == 0 {
		t.Fatal("recovery not counted")
	}
}

// --- shutdown hygiene -----------------------------------------------------

// TestServerCloseReleasesConnections is the leak test for Server.Close
// orphaning live connections: handler goroutines must be gone after Close
// returns and clients must see their connections die.
func TestServerCloseReleasesConnections(t *testing.T) {
	node := memnode.New(16<<20, 0xbeef)
	srv := NewServer(node)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	before := runtime.NumGoroutine()
	clients := make([]*Client, 4)
	for i := range clients {
		c, err := Dial(addr, 0xbeef, WithRedials(0), WithDeadline(500*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	srv.Close() // must close live conns and join every handler
	for _, c := range clients {
		if err := c.Ping(); err == nil {
			t.Fatal("ping succeeded after server Close")
		}
		c.Close()
	}
	// Handler goroutines must drain back to (roughly) the pre-dial count.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked past Close: %d -> %d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// --- hot-path allocations -------------------------------------------------

func TestSteadyStateAllocations(t *testing.T) {
	_, addr, _ := startServer(t)
	c, err := Dial(addr, 0xbeef)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	base, err := c.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	// Warm the pools.
	for i := 0; i < 32; i++ {
		if err := c.Write(base, buf); err != nil {
			t.Fatal(err)
		}
		if err := c.Read(base, buf); err != nil {
			t.Fatal(err)
		}
	}
	reads := testing.AllocsPerRun(200, func() {
		if err := c.Read(base, buf); err != nil {
			t.Fatal(err)
		}
	})
	writes := testing.AllocsPerRun(200, func() {
		if err := c.Write(base, buf); err != nil {
			t.Fatal(err)
		}
	})
	// The budget covers the odd map-bucket or timer allocation; the old
	// code allocated segment slices and payload copies every call.
	if reads > 8 || writes > 8 {
		t.Fatalf("hot path allocates: %.1f allocs/read, %.1f allocs/write", reads, writes)
	}

	segs := []Seg{{base, 2048}, {base + 2048, 2048}}
	bufs := [][]byte{buf[:2048], buf[2048:]}
	for i := 0; i < 8; i++ {
		if err := c.WriteV(segs, bufs); err != nil {
			t.Fatal(err)
		}
	}
	writev := testing.AllocsPerRun(200, func() {
		if err := c.WriteV(segs, bufs); err != nil {
			t.Fatal(err)
		}
	})
	if writev > 8 {
		t.Fatalf("Client.WriteV allocates %.1f per call; scratch reuse broken", writev)
	}
}

// --- pipelining beats one-at-a-time ---------------------------------------

// TestPipelinedBeatsDepth1Throughput is the acceptance gate: window-64
// AsyncReads must out-read depth-1 blocking Reads over the same server on
// loopback.
func TestPipelinedBeatsDepth1Throughput(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput comparison")
	}
	if raceEnabled {
		// The race detector multiplies the cost of every sync op, so the
		// comparison would measure the instrumentation, not the transport.
		// CI runs this gate in the non-race job.
		t.Skip("timing gate is meaningless under the race detector")
	}
	_, addr, _ := startServer(t)
	c1, err := Dial(addr, 0xbeef, WithDeadline(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	base, err := c1.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	const ops = 2000
	measureDepth1 := func() time.Duration {
		buf := make([]byte, 4096)
		start := time.Now()
		for i := 0; i < ops; i++ {
			if err := c1.Read(base+uint64(i%64)*4096, buf); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	measurePipelined := func() time.Duration {
		c, err := Dial(addr, 0xbeef, WithDepth(64), WithDeadline(10*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		const window = 64
		bufs := make([][]byte, window)
		for i := range bufs {
			bufs[i] = make([]byte, 4096)
		}
		pend := make([]*Pending, 0, window)
		start := time.Now()
		for i := 0; i < ops; i++ {
			if len(pend) == window {
				if err := pend[0].Wait(); err != nil {
					t.Fatal(err)
				}
				pend = pend[1:]
			}
			p, err := c.AsyncRead(base+uint64(i%64)*4096, bufs[i%window])
			if err != nil {
				t.Fatal(err)
			}
			pend = append(pend, p)
		}
		for _, p := range pend {
			if err := p.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	// One retry to absorb scheduler noise on loaded CI machines.
	for attempt := 0; ; attempt++ {
		d1, d2 := measureDepth1(), measurePipelined()
		t.Logf("depth 1 %v, window 64 %v (%.2fx)", d1, d2, float64(d1)/float64(d2))
		if d2 < d1 {
			return
		}
		if attempt == 2 {
			t.Fatalf("window-64 AsyncRead (%v) not faster than depth-1 Read (%v)", d2, d1)
		}
	}
}

// --- stats plumbing -------------------------------------------------------

func TestClientStatsSnapshot(t *testing.T) {
	_, addr, _ := startServer(t)
	c, err := Dial(addr, 0xbeef)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	snap := c.Stats.Snapshot()
	for _, key := range []string{
		"transport.sent", "transport.completed", "transport.retries",
		"transport.redials", "transport.inflight", "transport.draining",
	} {
		if _, ok := snap[key]; !ok {
			t.Fatalf("snapshot missing %q", key)
		}
	}
	if snap["transport.sent"] < 1 || snap["transport.completed"] < 1 {
		t.Fatalf("counters dead: %v", snap)
	}
}

// TestWireCompat pins the v2 frame layout: a byte-level handcrafted PING
// must round-trip against the server, so client and server cannot drift
// in lockstep.
func TestWireCompat(t *testing.T) {
	_, addr, _ := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(helloMagic[:]); err != nil {
		t.Fatal(err)
	}
	req := make([]byte, reqHdrLen)
	req[0] = OpPing
	binary.LittleEndian.PutUint32(req[1:5], 0xbeef)
	binary.LittleEndian.PutUint64(req[5:13], 0x1122334455667788)
	binary.LittleEndian.PutUint16(req[13:15], 0)
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	resp := make([]byte, respHdrLen)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, resp); err != nil {
		t.Fatal(err)
	}
	if tag := binary.LittleEndian.Uint64(resp[:8]); tag != 0x1122334455667788 {
		t.Fatalf("echoed tag %#x", tag)
	}
	if resp[8] != StatusOK {
		t.Fatalf("status %d", resp[8])
	}
}

// --- review regressions ---------------------------------------------------

// TestZeroSegRequestsAnswerOK: a vectored op with zero segments is a
// no-op, not a panic — the seed server answered these StatusOK and a
// client must not be able to crash the daemon with an empty READV.
func TestZeroSegRequestsAnswerOK(t *testing.T) {
	_, addr, _ := startServer(t)
	c, err := Dial(addr, 0xbeef)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.ReadV(nil, nil); err != nil {
		t.Fatalf("zero-seg READV: %v", err)
	}
	if err := c.WriteV(nil, nil); err != nil {
		t.Fatalf("zero-seg WRITEV: %v", err)
	}
	// The daemon must still be alive with the stream usable.
	if err := c.Ping(); err != nil {
		t.Fatalf("server unusable after zero-seg requests: %v", err)
	}
	if c.Stats.Redials.Load() != 0 {
		t.Fatal("zero-seg requests caused a redial")
	}
}

// readV2Req consumes one v2 request frame (header + segment headers) and
// returns its tag and total declared payload/response length.
func readV2Req(br *bufio.Reader) (tag uint64, n int, ok bool) {
	var hdr [reqHdrLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, 0, false
	}
	tag = binary.LittleEndian.Uint64(hdr[5:13])
	nsegs := int(binary.LittleEndian.Uint16(hdr[13:15]))
	for i := 0; i < nsegs; i++ {
		var sh [segHdrLen]byte
		if _, err := io.ReadFull(br, sh[:]); err != nil {
			return 0, 0, false
		}
		n += int(binary.LittleEndian.Uint32(sh[8:12]))
	}
	return tag, n, true
}

// TestLateResponseKeepsConnection: a response arriving after its
// request's budget expired must be drained by tag, not treated as an
// unknown-tag protocol error that tears the connection down and resends
// every other in-flight request.
func TestLateResponseKeepsConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		var hello [4]byte
		if _, err := io.ReadFull(br, hello[:]); err != nil {
			return
		}
		reply := func(tag uint64, n int) {
			resp := make([]byte, respHdrLen+n)
			binary.LittleEndian.PutUint64(resp[:8], tag)
			resp[8] = StatusOK
			conn.Write(resp)
		}
		// Withhold the first answer until the second request arrives — by
		// then the first call's budget has expired client-side — then
		// answer both, late one first, and keep serving promptly.
		tag0, n0, ok := readV2Req(br)
		if !ok {
			return
		}
		tag1, n1, ok := readV2Req(br)
		if !ok {
			return
		}
		reply(tag0, n0)
		reply(tag1, n1)
		for {
			tag, n, ok := readV2Req(br)
			if !ok {
				return
			}
			reply(tag, n)
		}
	}()
	c, err := Dial(ln.Addr().String(), 0xbeef,
		WithDeadline(200*time.Millisecond), WithRedials(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p, err := c.AsyncRead(0, make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("withheld response: want ErrDeadline, got %v", err)
	}
	// The second request flushes both answers; the late one carries an
	// expired tag plus 64 payload bytes the reader must drain for this
	// one to complete on the same connection.
	if err := c.Read(0, make([]byte, 64)); err != nil {
		t.Fatalf("request after a late response: %v", err)
	}
	if got := c.Stats.Redials.Load(); got != 0 {
		t.Fatalf("late response caused %d redials; the connection must survive", got)
	}
	if got := c.Stats.LateDrained.Load(); got != 1 {
		t.Fatalf("LateDrained = %d, want 1", got)
	}
}

// TestCloseWaitsForReader: Close must not complete a pending call while
// the lane reader may still be copying a payload into the caller's
// buffer — once Wait returns, the buffer belongs to the caller again.
// Under -race this pins the Close/readPayload window.
func TestCloseWaitsForReader(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	partialSent := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		var hello [4]byte
		if _, err := io.ReadFull(br, hello[:]); err != nil {
			return
		}
		tag, n, ok := readV2Req(br)
		if !ok {
			return
		}
		// Answer with the header and half the payload, then stall with
		// the connection held open: the client reader is left blocked
		// mid-readPayload, the exact window the old Close raced.
		resp := make([]byte, respHdrLen+n/2)
		binary.LittleEndian.PutUint64(resp[:8], tag)
		resp[8] = StatusOK
		conn.Write(resp)
		close(partialSent)
		<-release
	}()
	c, err := Dial(ln.Addr().String(), 0xbeef,
		WithDeadline(5*time.Second), WithRedials(0))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	errCh := make(chan error, 1)
	go func() { errCh <- c.Read(0, buf) }()
	<-partialSent
	time.Sleep(20 * time.Millisecond) // let the reader enter readPayload
	c.Close()
	if err := <-errCh; !errors.Is(err, ErrClosed) {
		t.Fatalf("read interrupted by Close = %v, want ErrClosed", err)
	}
	// Wait returned, so the buffer is the caller's again; writing it must
	// not race a reader goroutine.
	for i := range buf {
		buf[i] = 0xEE
	}
}

// TestBatchRejectsRestrictedSubOps: wire.go restricts doorbell sub-ops
// to READ/WRITE/READV/WRITEV/PING. A smuggled ALLOC must come back
// StatusBadOp — without allocating anything a resend could leak — on a
// stream that stays usable for its batch neighbours.
func TestBatchRejectsRestrictedSubOps(t *testing.T) {
	_, addr, node := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(helloMagic[:]); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, reqHdrLen)
	frame[0] = OpBatch
	binary.LittleEndian.PutUint32(frame[1:5], 0xbeef)
	binary.LittleEndian.PutUint64(frame[5:13], 100) // tag0
	binary.LittleEndian.PutUint16(frame[13:15], 2)  // two sub-ops
	// Sub-op 0: ALLOC of 4 pages (1 seg whose Len carries the count).
	frame = append(frame, OpAlloc, 1, 0)
	seg := make([]byte, segHdrLen)
	binary.LittleEndian.PutUint32(seg[8:12], 4)
	frame = append(frame, seg...)
	// Sub-op 1: PING.
	frame = append(frame, OpPing, 0, 0)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	statuses := map[uint64]byte{} // completions may arrive out of order
	var resp [respHdrLen]byte
	for i := 0; i < 2; i++ {
		if _, err := io.ReadFull(conn, resp[:]); err != nil {
			t.Fatal(err)
		}
		statuses[binary.LittleEndian.Uint64(resp[:8])] = resp[8]
	}
	if statuses[100] != StatusBadOp {
		t.Fatalf("smuggled ALLOC sub-op: status %d, want StatusBadOp", statuses[100])
	}
	if statuses[101] != StatusOK {
		t.Fatalf("PING sub-op beside rejected ALLOC: status %d, want StatusOK", statuses[101])
	}
	if got := node.PagesInUse(); got != 0 {
		t.Fatalf("rejected ALLOC still allocated %d pages", got)
	}
}

// TestDrainSnapshotAtParseTime: the drain decision is taken when a
// request is parsed off the stream, not when it executes, so a request
// already queued when Drain flips the flag completes normally — exactly
// what the Drain contract promises.
func TestDrainSnapshotAtParseTime(t *testing.T) {
	node := memnode.New(16<<20, 0xbeef)
	srv := NewServer(node)
	srv.draining.Store(true)
	// Parsed before the flip: executes despite the live drain flag.
	rq := &request{op: OpPing, pkey: 0xbeef, status: statusExec}
	if got := srv.run(rq); got != StatusOK {
		t.Fatalf("request parsed before drain = status %d, want StatusOK", got)
	}
	// Parsed after the flip: refused.
	rq = &request{op: OpPing, pkey: 0xbeef, status: statusExec, draining: true}
	if got := srv.run(rq); got != StatusDraining {
		t.Fatalf("request parsed during drain = status %d, want StatusDraining", got)
	}
	if got := srv.DrainedReqs.Load(); got != 1 {
		t.Fatalf("DrainedReqs = %d, want 1", got)
	}
}

// TestConcurrentLanes drives several lanes and clients at once under the
// race detector: the sharded server must keep page-disjoint writes intact.
func TestConcurrentLanes(t *testing.T) {
	_, addr, _ := startServer(t)
	c, err := Dial(addr, 0xbeef, WithLanes(4), WithDepth(16))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	base, err := c.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 4096)
			got := make([]byte, 4096)
			for i := 0; i < 50; i++ {
				off := base + uint64(w*16+i%16)*4096
				for j := range buf {
					buf[j] = byte(w*31 + i)
				}
				if err := c.Write(off, buf); err != nil {
					errCh <- fmt.Errorf("worker %d write: %w", w, err)
					return
				}
				if err := c.Read(off, got); err != nil {
					errCh <- fmt.Errorf("worker %d read: %w", w, err)
					return
				}
				if !bytes.Equal(buf, got) {
					errCh <- fmt.Errorf("worker %d: data corrupted", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
