package redis

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dilos/internal/core"
	"dilos/internal/fabric"
	"dilos/internal/guide"
	"dilos/internal/prefetch"
	"dilos/internal/sim"
	"dilos/internal/space"
)

func localServer() (*Server, *space.Local) {
	sp := space.NewLocal(256 << 20)
	return NewServer(sp), sp
}

func TestSetGetDel(t *testing.T) {
	srv, _ := localServer()
	srv.Set([]byte("hello"), []byte("world"))
	if got := srv.Get([]byte("hello")); !bytes.Equal(got, []byte("world")) {
		t.Fatalf("got %q", got)
	}
	if srv.Get([]byte("missing")) != nil {
		t.Fatal("missing key returned a value")
	}
	if !srv.Del([]byte("hello")) {
		t.Fatal("del failed")
	}
	if srv.Del([]byte("hello")) {
		t.Fatal("double del succeeded")
	}
	if srv.Get([]byte("hello")) != nil {
		t.Fatal("deleted key still readable")
	}
}

func TestSetOverwrite(t *testing.T) {
	srv, _ := localServer()
	srv.Set([]byte("k"), []byte("v1"))
	srv.Set([]byte("k"), []byte("v2-longer-value"))
	if got := srv.Get([]byte("k")); !bytes.Equal(got, []byte("v2-longer-value")) {
		t.Fatalf("got %q", got)
	}
	if srv.dict.count != 1 {
		t.Fatalf("dict len = %d", srv.dict.count)
	}
}

func TestDictGrowth(t *testing.T) {
	srv, _ := localServer()
	const n = 5000
	for i := 0; i < n; i++ {
		srv.Set(KeyOf(i), valueOf(i, 32))
	}
	if srv.dict.count != n {
		t.Fatalf("len = %d", srv.dict.count)
	}
	for i := 0; i < n; i++ {
		if got := srv.Get(KeyOf(i)); !bytes.Equal(got, valueOf(i, 32)) {
			t.Fatalf("key %d wrong after growth", i)
		}
	}
}

// Property-style: the dict behaves like a map under random SET/GET/DEL.
func TestDictVsMapRandomOps(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		srv, _ := localServer()
		ref := map[string][]byte{}
		for i := 0; i < 3000; i++ {
			k := []byte(fmt.Sprintf("key-%d", rng.Intn(300)))
			switch rng.Intn(3) {
			case 0:
				v := make([]byte, rng.Intn(200)+1)
				rng.Read(v)
				srv.Set(k, v)
				ref[string(k)] = append([]byte(nil), v...)
			case 1:
				got := srv.Get(k)
				want := ref[string(k)]
				if (got == nil) != (want == nil) || !bytes.Equal(got, want) {
					t.Fatalf("seed %d iter %d: get %q = %q, want %q", seed, i, k, got, want)
				}
			case 2:
				_, existed := ref[string(k)]
				if srv.Del(k) != existed {
					t.Fatalf("seed %d: del %q mismatch", seed, k)
				}
				delete(ref, string(k))
			}
		}
		if int(srv.dict.count) != len(ref) {
			t.Fatalf("seed %d: len %d vs %d", seed, srv.dict.count, len(ref))
		}
	}
}

func TestQuicklistPushRange(t *testing.T) {
	srv, _ := localServer()
	key := []byte("biglist")
	const n = 500
	for i := 0; i < n; i++ {
		srv.RPush(key, []byte(fmt.Sprintf("elem-%04d", i)))
	}
	if all := srv.LRange(key, 0, -1); len(all) != n {
		t.Fatalf("list holds %d elements, want %d", len(all), n)
	}
	out := srv.LRange(key, 0, 99)
	if len(out) != 100 {
		t.Fatalf("lrange returned %d", len(out))
	}
	for i, e := range out {
		if string(e) != fmt.Sprintf("elem-%04d", i) {
			t.Fatalf("elem %d = %q", i, e)
		}
	}
	// Middle and tail slices.
	out = srv.LRange(key, 250, 259)
	if len(out) != 10 || string(out[0]) != "elem-0250" {
		t.Fatalf("middle range wrong: %q", out)
	}
	out = srv.LRange(key, -5, -1)
	if len(out) != 5 || string(out[4]) != fmt.Sprintf("elem-%04d", n-1) {
		t.Fatalf("negative range wrong: %q", out)
	}
}

func TestQuicklistSpansNodes(t *testing.T) {
	srv, _ := localServer()
	key := []byte("l")
	big := make([]byte, 512)
	for i := 0; i < 50; i++ { // 50*516 > zlMaxBytes: multiple nodes
		srv.RPush(key, big)
	}
	addr, _ := srv.dict.Find(key)
	ql := srv.openQuicklist(addr)
	if ql.head() == ql.tail() {
		t.Fatal("expected multiple quicklist nodes")
	}
	if got := srv.LRange(key, 0, -1); len(got) != 50 {
		t.Fatalf("range across nodes = %d elems", len(got))
	}
}

func TestBenchDriversLocal(t *testing.T) {
	srv, sp := localServer()
	const keys = 200
	PopulateGET(srv, keys, SizeFixed(4096))
	res := RunGET(sp, srv, keys, 500, SizeFixed(4096), 1)
	if res.BadValues != 0 {
		t.Fatalf("bad values: %d", res.BadValues)
	}
	if res.Latency.Count() != 500 {
		t.Fatal("latency histogram incomplete")
	}
	del := RunDEL(srv, keys, 0.7, 2)
	if del < keys/2 {
		t.Fatalf("deleted only %d", del)
	}
}

func TestLRANGEDriverLocal(t *testing.T) {
	srv, sp := localServer()
	PopulateLRANGE(srv, 20, 2000, 100, 3)
	res := RunLRANGE(sp, srv, 20, 50, 4)
	if res.Elements == 0 {
		t.Fatal("no elements returned")
	}
}

// dilosServer boots a Redis server on a DiLOS node.
func dilosServer(t *testing.T, frames int, pf prefetch.Prefetcher, g guide.Guide) (*core.System, *sim.Engine) {
	t.Helper()
	eng := sim.New()
	sys := core.New(eng, core.Config{
		CacheFrames: frames,
		Cores:       2,
		RemoteBytes: 512 << 20,
		Fabric:      fabric.DefaultParams(),
		Prefetcher:  pf,
	})
	if g != nil {
		sys.AttachGuide(g)
	}
	sys.Start()
	return sys, eng
}

func TestRedisOnDiLOS(t *testing.T) {
	sys, eng := dilosServer(t, 2048, nil, nil)
	sys.Launch("redis", 0, func(sp *core.DDCProc) {
		srv := NewServer(sp)
		const keys = 300
		PopulateGET(srv, keys, SizeFixed(4096))
		res := RunGET(sp, srv, keys, 600, SizeFixed(4096), 7)
		if res.BadValues != 0 {
			t.Errorf("bad values under paging: %d", res.BadValues)
		}
	})
	eng.Run()
	if sys.MajorFaults.N == 0 {
		t.Fatal("workload never faulted — not exercising paging")
	}
}

func TestAppGuideSpeedsUpLRANGE(t *testing.T) {
	run := func(g *AppGuide) sim.Time {
		var pf prefetch.Prefetcher
		sys, eng := dilosServer(t, 1024, pf, func() guide.Guide {
			if g == nil {
				return nil
			}
			return g
		}())
		var elapsed sim.Time
		sys.Launch("redis", 0, func(sp *core.DDCProc) {
			srv := NewServer(sp)
			if g != nil {
				g.Install(srv, sp.Proc())
			}
			PopulateLRANGE(srv, 64, 12000, 100, 5)
			// Evict the lists by streaming through a spoiler region.
			spoiler, _ := sys.MmapDDC(2048)
			for i := uint64(0); i < 2048; i++ {
				sp.StoreU8(spoiler+i*core.PageSize, 1)
			}
			res := RunLRANGE(sp, srv, 64, 200, 6)
			elapsed = res.Elapsed
			if res.Elements == 0 {
				t.Error("no elements")
			}
		})
		eng.Run()
		return elapsed
	}
	base := run(nil)
	guided := run(NewAppGuide())
	// Paper: app-aware beats general-purpose/no-prefetch by ~62% on
	// LRANGE. Require at least 20% here.
	if guided*5 > base*4 {
		t.Fatalf("guide ineffective: guided=%v base=%v", guided, base)
	}
}

func TestAppGuidePrefetchesGETValuePages(t *testing.T) {
	g := NewAppGuide()
	sys, eng := dilosServer(t, 1024, nil, g)
	sys.Launch("redis", 0, func(sp *core.DDCProc) {
		srv := NewServer(sp)
		g.Install(srv, sp.Proc())
		const keys = 40
		PopulateGET(srv, keys, SizeFixed(64<<10)) // 16-page values
		spoiler, _ := sys.MmapDDC(2048)
		for i := uint64(0); i < 2048; i++ {
			sp.StoreU8(spoiler+i*core.PageSize, 1)
		}
		res := RunGET(sp, srv, keys, 60, SizeFixed(64<<10), 8)
		if res.BadValues != 0 {
			t.Errorf("bad values: %d", res.BadValues)
		}
	})
	eng.Run()
	if g.SubpageReads == 0 || g.PagePrefetch == 0 {
		t.Fatalf("guide idle: subpage=%d prefetch=%d", g.SubpageReads, g.PagePrefetch)
	}
}
