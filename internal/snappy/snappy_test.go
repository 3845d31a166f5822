package snappy

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"dilos/internal/core"
	"dilos/internal/fabric"
	"dilos/internal/sim"
	"dilos/internal/space"
)

// compressBytes / decompressBytes run Compress and Decompress over a
// host-side space.Local, for the property and fuzz tests.
func compressBytes(src []byte) []byte {
	sp := space.NewLocal(uint64(len(src))*2 + 1<<20)
	a := sp.Malloc(uint64(len(src)) + 8)
	b := sp.Malloc(uint64(len(src))*2 + 64)
	sp.Store(a, src)
	n := Compress(sp, a, uint64(len(src)), b)
	out := make([]byte, n)
	sp.Load(b, out)
	return out
}

// decompressBytes reverses compressBytes.
func decompressBytes(comp []byte, origLen int) []byte {
	sp := space.NewLocal(uint64(len(comp)+origLen) + 1<<20)
	a := sp.Malloc(uint64(len(comp)) + 8)
	b := sp.Malloc(uint64(origLen) + 64)
	sp.Store(a, comp)
	n := Decompress(sp, a, uint64(len(comp)), b)
	out := make([]byte, n)
	sp.Load(b, out)
	return out
}

func TestRoundTripSimple(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("a"),
		[]byte("hello hello hello hello"),
		bytes.Repeat([]byte("abcd"), 10000),
		bytes.Repeat([]byte{0}, 200000),
	}
	for i, src := range cases {
		comp := compressBytes(src)
		got := decompressBytes(comp, len(src))
		if !bytes.Equal(got, src) {
			t.Fatalf("case %d: round trip failed", i)
		}
	}
}

func TestCompressionRatioOnRedundantData(t *testing.T) {
	src := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 5000)
	comp := compressBytes(src)
	if len(comp)*3 > len(src) {
		t.Fatalf("ratio too poor on redundant text: %d -> %d", len(src), len(comp))
	}
}

func TestIncompressibleDataExpandsBoundedly(t *testing.T) {
	src := make([]byte, 100000)
	rand.New(rand.NewSource(1)).Read(src)
	comp := compressBytes(src)
	if len(comp) > len(src)+len(src)/64+16 {
		t.Fatalf("expansion too large: %d -> %d", len(src), len(comp))
	}
	if !bytes.Equal(decompressBytes(comp, len(src)), src) {
		t.Fatal("round trip failed")
	}
}

// Property (DESIGN.md §6): decompress(compress(x)) == x for arbitrary x.
func TestQuickRoundTrip(t *testing.T) {
	f := func(src []byte) bool {
		comp := compressBytes(src)
		return bytes.Equal(decompressBytes(comp, len(src)), src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: structured (compressible) random data also round-trips.
func TestQuickRoundTripCompressible(t *testing.T) {
	f := func(seed int64, words uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		dict := make([][]byte, int(words%16)+2)
		for i := range dict {
			w := make([]byte, rng.Intn(20)+3)
			rng.Read(w)
			dict[i] = w
		}
		var src []byte
		for len(src) < 150000 {
			src = append(src, dict[rng.Intn(len(dict))]...)
		}
		comp := compressBytes(src)
		return bytes.Equal(decompressBytes(comp, len(src)), src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiBlockStreams(t *testing.T) {
	src := make([]byte, 3*BlockSize+1234) // forces 4 blocks
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < len(src); i += 8 {
		// Semi-compressible: runs of repeated words.
		v := byte(rng.Intn(4))
		for j := i; j < i+8 && j < len(src); j++ {
			src[j] = v
		}
	}
	comp := compressBytes(src)
	if !bytes.Equal(decompressBytes(comp, len(src)), src) {
		t.Fatal("multi-block round trip failed")
	}
}

func TestCompressChargesCPU(t *testing.T) {
	sp := space.NewLocal(4 << 20)
	eng := sim.New()
	var elapsed sim.Time
	eng.Go("cpu", func(p *sim.Proc) {
		sp.P = p
		src := sp.Malloc(1 << 20)
		dst := sp.Malloc(2 << 20)
		t0 := p.Now()
		Compress(sp, src, 1<<20, dst)
		elapsed = p.Now() - t0
	})
	eng.Run()
	if elapsed < sim.Time(1<<20)*CompressCostPerByte {
		t.Fatalf("compression too cheap: %v", elapsed)
	}
}

func TestSnappyOnDiLOS(t *testing.T) {
	eng := sim.New()
	sys := core.New(eng, core.Config{
		CacheFrames: 128, Cores: 1, RemoteBytes: 64 << 20,
		Fabric: fabric.DefaultParams(),
	})
	sys.Start()
	sys.Launch("app", 0, func(sp *core.DDCProc) {
		const n = 1 << 20 // 256 pages vs 128-frame cache
		src := sp.Malloc(n)
		dst := sp.Malloc(2 * n)
		back := sp.Malloc(n)
		// Compressible pattern written through the space.
		pattern := bytes.Repeat([]byte("0123456789abcdef"), 256)
		for off := uint64(0); off < n; off += uint64(len(pattern)) {
			sp.Store(src+off, pattern)
		}
		cn := Compress(sp, src, n, dst)
		dn := Decompress(sp, dst, cn, back)
		if dn != n {
			t.Errorf("decompressed %d bytes, want %d", dn, n)
			return
		}
		buf := make([]byte, len(pattern))
		sp.Load(back+4096, buf)
		if !bytes.Equal(buf, pattern) {
			t.Error("payload corrupted through paging")
		}
	})
	eng.Run()
	if sys.Mgr.Evicted.N == 0 {
		t.Fatal("no paging pressure during compression")
	}
}
