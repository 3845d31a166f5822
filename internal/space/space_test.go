package space

import (
	"bytes"
	"testing"
	"testing/quick"

	"dilos/internal/sim"
)

func TestLocalRoundTrip(t *testing.T) {
	l := NewLocal(1 << 20)
	a := l.Malloc(64)
	b := l.Malloc(64)
	if a == 0 || a == b {
		t.Fatalf("bad addresses %d %d", a, b)
	}
	l.StoreU64(a, 0x1122334455667788)
	if l.LoadU64(a) != 0x1122334455667788 {
		t.Fatal("u64 round trip")
	}
	l.StoreU32(b, 0xdeadbeef)
	if l.LoadU32(b) != 0xdeadbeef {
		t.Fatal("u32 round trip")
	}
	l.Store(b+4, []byte{0x7e})
	if l.LoadU8(b+4) != 0x7e {
		t.Fatal("u8 round trip")
	}
	buf := []byte("space test")
	l.Store(a, buf)
	got := make([]byte, len(buf))
	l.Load(a, got)
	if !bytes.Equal(got, buf) {
		t.Fatal("bulk round trip")
	}
}

func TestLocalEndianness(t *testing.T) {
	l := NewLocal(4096 * 4)
	a := l.Malloc(8)
	l.StoreU64(a, 0x0102030405060708)
	var b [8]byte
	l.Load(a, b[:])
	if b[0] != 0x08 || b[7] != 0x01 {
		t.Fatalf("not little-endian: %x", b)
	}
}

func TestLocalComputeWithAndWithoutProc(t *testing.T) {
	l := NewLocal(4096)
	l.Compute(100) // no proc attached: must not panic
	if l.Now() != 0 {
		t.Fatal("Now without proc should be 0")
	}
	eng := sim.New()
	eng.Go("p", func(p *sim.Proc) {
		l.P = p
		l.Compute(250)
		if l.Now() != 250 {
			t.Error("Compute did not advance the proc")
		}
	})
	eng.Run()
	if l.Proc() == nil {
		t.Fatal("Proc accessor lost the process")
	}
}

func TestLocalMallocAlignmentAndNil(t *testing.T) {
	l := NewLocal(1 << 16)
	first := l.Malloc(1)
	if first == 0 {
		t.Fatal("address 0 must stay reserved as nil")
	}
	for i := 0; i < 10; i++ {
		if a := l.Malloc(uint64(i + 1)); a%16 != 0 {
			t.Fatalf("unaligned alloc %#x", a)
		}
	}
}

func TestLocalOOMPanics(t *testing.T) {
	l := NewLocal(8192)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Malloc(1 << 20)
}

// Property: Local behaves like a flat byte array.
func TestQuickLocalSemantics(t *testing.T) {
	f := func(writes []struct {
		Off  uint16
		Data []byte
	}) bool {
		l := NewLocal(1 << 17)
		ref := make([]byte, 1<<17)
		for _, w := range writes {
			if len(w.Data) == 0 {
				continue
			}
			off := uint64(w.Off)
			if off+uint64(len(w.Data)) > uint64(len(ref)) {
				continue
			}
			l.Store(off, w.Data)
			copy(ref[off:], w.Data)
		}
		got := make([]byte, len(ref))
		l.Load(0, got)
		return bytes.Equal(got, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
