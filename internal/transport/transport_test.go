package transport

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"dilos/internal/memnode"
)

func startServer(t *testing.T) (*Server, string, *memnode.Node) {
	t.Helper()
	node := memnode.New(16<<20, 0xbeef)
	srv := NewServer(node)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv, addr, node
}

func TestReadWriteRoundTrip(t *testing.T) {
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
	want := bytes.Repeat([]byte{0x5a, 0xa5}, 2048)
	if err := c.Write(base, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := c.Read(base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("data mismatch over the wire")
	}
}

func TestVectoredOps(t *testing.T) {
	_, addr, _ := startServer(t)
	c, _ := Dial(addr, 0xbeef)
	defer c.Close()
	base, _ := c.Alloc(1)
	segs := []Seg{{base + 0, 64}, {base + 1024, 128}, {base + 3000, 32}}
	bufs := [][]byte{
		bytes.Repeat([]byte{1}, 64),
		bytes.Repeat([]byte{2}, 128),
		bytes.Repeat([]byte{3}, 32),
	}
	if err := c.WriteV(segs, bufs); err != nil {
		t.Fatal(err)
	}
	got := [][]byte{make([]byte, 64), make([]byte, 128), make([]byte, 32)}
	if err := c.ReadV(segs, got); err != nil {
		t.Fatal(err)
	}
	for i := range bufs {
		if !bytes.Equal(got[i], bufs[i]) {
			t.Fatalf("segment %d mismatch", i)
		}
	}
	// The gap between segments must be untouched (zero).
	hole := make([]byte, 16)
	if err := c.Read(base+200, hole); err != nil {
		t.Fatal(err)
	}
	for _, b := range hole {
		if b != 0 {
			t.Fatal("vectored write leaked into the gap")
		}
	}
}

func TestProtectionKeyRejected(t *testing.T) {
	_, addr, _ := startServer(t)
	c, _ := Dial(addr, 0xdead) // wrong key
	defer c.Close()
	if err := c.Write(0, []byte{1}); err == nil {
		t.Fatal("wrong protection key accepted")
	}
	// The connection must still be usable for the next (failing) request —
	// stream stays in sync.
	if err := c.Read(0, make([]byte, 1)); err == nil {
		t.Fatal("wrong key accepted on read")
	}
}

func TestBoundsChecked(t *testing.T) {
	_, addr, node := startServer(t)
	c, _ := Dial(addr, 0xbeef)
	defer c.Close()
	if err := c.Read(node.Size()-1, make([]byte, 8)); err == nil {
		t.Fatal("out-of-bounds read accepted")
	}
}

func TestInfo(t *testing.T) {
	_, addr, node := startServer(t)
	c, _ := Dial(addr, 0xbeef)
	defer c.Close()
	c.Alloc(3)
	size, inUse, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if size != node.Size() || inUse != 3 {
		t.Fatalf("info = %d/%d", size, inUse)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr, _ := startServer(t)
	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c, err := Dial(addr, 0xbeef)
			if err != nil {
				errs[k] = err
				return
			}
			defer c.Close()
			base, err := c.Alloc(8)
			if err != nil {
				errs[k] = err
				return
			}
			rng := rand.New(rand.NewSource(int64(k)))
			for i := 0; i < 50; i++ {
				off := base + uint64(rng.Intn(8*4096-256))
				buf := make([]byte, rng.Intn(256)+1)
				rng.Read(buf)
				if err := c.Write(off, buf); err != nil {
					errs[k] = err
					return
				}
				got := make([]byte, len(buf))
				if err := c.Read(off, got); err != nil {
					errs[k] = err
					return
				}
				if !bytes.Equal(got, buf) {
					errs[k] = bytes.ErrTooLarge // sentinel
					return
				}
			}
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", k, err)
		}
	}
}

// TestDeadServerSurfacesError is the regression test for the client
// hanging forever on a dead server: a listener that accepts but never
// responds must produce an error after a bounded delay, not a hang.
func TestDeadServerSurfacesError(t *testing.T) {
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
			defer conn.Close() // hold the connection open, never answer
		}
	}()
	c, err := Dial(ln.Addr().String(), 0xbeef,
		WithDeadline(200*time.Millisecond), WithRedials(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() { done <- c.Read(0, make([]byte, 8)) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("read from a dead server succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read from a dead server hung")
	}
}

// TestReconnectAfterConnectionDrop drops the client's first connection
// server-side; the client must redial transparently and complete the
// request on the fresh connection.
func TestReconnectAfterConnectionDrop(t *testing.T) {
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
				conn.Close()
				continue
			}
			go srv.handle(conn)
		}
	}()
	c, err := Dial(ln.Addr().String(), 0xbeef,
		WithDeadline(time.Second), WithRedials(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := []byte{1, 2, 3, 4}
	if err := c.Write(0, want); err != nil {
		t.Fatalf("write after connection drop: %v", err)
	}
	got := make([]byte, 4)
	if err := c.Read(0, got); err != nil {
		t.Fatalf("read after connection drop: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("data mismatch after reconnect")
	}
}

// TestStatusErrorsAreNotRetried checks that a daemon-side rejection (a
// bounds error) comes back as a StatusError immediately — the connection
// stays usable and no redial happens.
func TestStatusErrorsAreNotRetried(t *testing.T) {
	_, addr, _ := startServer(t)
	c, err := Dial(addr, 0xbeef)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Read(^uint64(0)-2, make([]byte, 8)) // overflow-probing offset
	var se *StatusError
	if !errors.As(err, &se) || se.Status != StatusBounds {
		t.Fatalf("want StatusBounds, got %v", err)
	}
	// The same connection still serves valid requests.
	if err := c.Write(0, []byte{9}); err != nil {
		t.Fatalf("connection unusable after status error: %v", err)
	}
}
