package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// A tiny profile.proto encoder, the mirror of the reader under test.
type pbEnc struct{ bytes.Buffer }

func (e *pbEnc) varint(v uint64) {
	for v >= 0x80 {
		e.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	e.WriteByte(byte(v))
}
func (e *pbEnc) uint(field int, v uint64) { e.varint(uint64(field)<<3 | wireVarint); e.varint(v) }
func (e *pbEnc) bytes(field int, b []byte) {
	e.varint(uint64(field)<<3 | wireBytes)
	e.varint(uint64(len(b)))
	e.Write(b)
}
func (e *pbEnc) packed(field int, vs ...uint64) {
	var p pbEnc
	for _, v := range vs {
		p.varint(v)
	}
	e.bytes(field, p.Bytes())
}

// synthStack is one sample of a synthetic profile: function names leaf
// first and a weight in CPU nanoseconds.
type synthStack struct {
	funcs []string
	file  string
	ns    uint64
}

// synthProfile encodes stacks the way runtime/pprof does: a string table,
// one Function and one Location per distinct name, samples carrying
// [count, nanoseconds].
func synthProfile(stacks []synthStack, gz bool) []byte {
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	var out pbEnc
	ids := map[string]uint64{}
	for _, st := range stacks {
		for _, fn := range st.funcs {
			if _, ok := ids[fn]; ok {
				continue
			}
			id := uint64(len(ids) + 1)
			ids[fn] = id
			var f pbEnc
			f.uint(1, id)
			f.uint(2, intern(fn))
			f.uint(4, intern(st.file))
			out.bytes(5, f.Bytes())
			var line pbEnc
			line.uint(1, id)
			line.uint(2, 10)
			var loc pbEnc
			loc.uint(1, id)
			loc.uint(3, 0x1000+id) // an address: a varint field the reader skips
			loc.bytes(4, line.Bytes())
			out.bytes(4, loc.Bytes())
		}
	}
	for i, st := range stacks {
		var s pbEnc
		var locs []uint64
		for _, fn := range st.funcs {
			locs = append(locs, ids[fn])
		}
		if i%2 == 0 { // both encodings of a repeated field occur in the wild
			s.packed(1, locs...)
		} else {
			for _, l := range locs {
				s.uint(1, l)
			}
		}
		s.packed(2, st.ns/4_000_000, st.ns)
		out.bytes(2, s.Bytes())
	}
	for _, s := range strs {
		out.bytes(6, []byte(s))
	}
	out.uint(12, 4_000_000) // period: skipped
	if !gz {
		return out.Bytes()
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(out.Bytes())
	zw.Close()
	return z.Bytes()
}

func TestParseSyntheticProfile(t *testing.T) {
	stacks := []synthStack{
		{funcs: []string{"runtime.memmove", "dilos/internal/memnode.(*Node).ReadAt", "main.run"}, file: "a.go", ns: 8_000_000},
		{funcs: []string{"dilos/internal/sim.(*Proc).yield", "runtime.goexit"}, file: "sim.go", ns: 12_000_000},
	}
	for _, gz := range []bool{false, true} {
		got, err := parseProfile(synthProfile(stacks, gz))
		if err != nil {
			t.Fatalf("gzip=%v: %v", gz, err)
		}
		if len(got) != len(stacks) {
			t.Fatalf("gzip=%v: %d samples, want %d", gz, len(got), len(stacks))
		}
		for i, st := range stacks {
			if got[i].Value != int64(st.ns) || got[i].Count != int64(st.ns/4_000_000) {
				t.Errorf("sample %d: value %d count %d", i, got[i].Value, got[i].Count)
			}
			for j, fn := range st.funcs {
				if got[i].Frames[j].Func != fn || got[i].Frames[j].File != st.file {
					t.Errorf("sample %d frame %d: %+v, want %s in %s", i, j, got[i].Frames[j], fn, st.file)
				}
			}
		}
	}
	if _, err := parseProfile([]byte{0x12, 0x7f, 0x01}); err == nil {
		t.Error("a truncated message parsed")
	}
}

func TestLayerSharesOfKnownProfile(t *testing.T) {
	ms := uint64(1_000_000)
	stacks := []synthStack{
		// leaf in a layer
		{funcs: []string{"dilos/internal/sim.(*Engine).resumeProc", "dilos/internal/sim.(*Engine).Run", "main.main"}, ns: 10 * ms},
		// runtime kinds win over the layer that called them
		{funcs: []string{"runtime.memmove", "dilos/internal/memnode.(*Node).ReadAt", "dilos/internal/fabric.(*QP).issue"}, ns: 20 * ms},
		{funcs: []string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, ns: 15 * ms},
		{funcs: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, ns: 5 * ms},
		{funcs: []string{"internal/runtime/syscall.Syscall6", "syscall.RawSyscall6", "syscall.write", "internal/poll.(*FD).Write", "net.(*conn).Write", "bufio.(*Writer).Flush", "dilos/internal/transport.(*lane).writeOrKickLocked"}, ns: 10 * ms},
		// runtime code of no kind, and support packages, charge their caller
		{funcs: []string{"runtime.nanotime", "time.Now", "main.stormBody"}, ns: 4 * ms},
		{funcs: []string{"sort.insertionSort", "dilos/internal/stats.(*Histogram).Percentile", "dilos/internal/core.(*coreHandler).HandleFault"}, ns: 6 * ms},
		// transport by receiver, then by file for helpers
		{funcs: []string{"dilos/internal/transport.(*Server).run", "dilos/internal/transport.(*Server).execute"}, ns: 7 * ms},
		{funcs: []string{"dilos/internal/transport.growTo", "dilos/internal/transport.(*Server).readBody"}, file: "/x/internal/transport/server.go", ns: 3 * ms},
		{funcs: []string{"dilos/internal/transport.segsBytes", "dilos/internal/transport.(*Client).submit"}, file: "/x/internal/transport/wire.go", ns: 2 * ms},
		{funcs: []string{"dilos/internal/fastswap.(*System).fault"}, ns: 8 * ms},
		{funcs: []string{"dilos/internal/redis.(*Server).Get", "dilos/internal/experiments.Fig10a"}, ns: 5 * ms},
		// nothing named anywhere on the stack
		{funcs: []string{"runtime/pprof.(*profileBuilder).build", "runtime/pprof.profileWriter"}, ns: 3 * ms},
		{funcs: []string{"example.com/unknown/pkg.Work", "runtime.goexit"}, ns: 2 * ms},
	}
	samples, err := parseProfile(synthProfile(stacks, true))
	if err != nil {
		t.Fatal(err)
	}
	shares, n := layerShares(samples)
	if n == 0 {
		t.Fatal("no raw samples counted")
	}
	want := map[string]float64{
		"sim.host_share_pct":          10,
		"runtime.memmove_share_pct":   20,
		"runtime.sched_share_pct":     15,
		"runtime.gc_share_pct":        5,
		"runtime.syscall_share_pct":   10,
		"workload.host_share_pct":     4 + 5,
		"core.host_share_pct":         6,
		"transport.server_share_pct":  7 + 3,
		"transport.client_share_pct":  2,
		"baselines.host_share_pct":    8,
		"bench.unattributed_pct":      3 + 2,
		"memnode.host_share_pct":      0,
		"fabric.host_share_pct":       0,
		"pagetable.host_share_pct":    0,
		"transport.rtt_p50_us.read4k": math.NaN(), // not a share: must be absent
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v, want 100", sum)
	}
	if len(shares) != len(shareMetric) {
		t.Errorf("%d shares for %d share metrics", len(shares), len(shareMetric))
	}
	for name, w := range want {
		got, ok := shares[name]
		if math.IsNaN(w) {
			if ok {
				t.Errorf("%s reported as a share", name)
			}
			continue
		}
		if !ok || math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
	for _, metric := range shareMetric {
		if _, ok := metricByName(metric); !ok {
			t.Errorf("share metric %s is not in the metric table", metric)
		}
	}
}

func TestEmptyProfileHasZeroShares(t *testing.T) {
	shares, n := layerShares(nil)
	if n != 0 {
		t.Fatalf("n = %d", n)
	}
	for name, v := range shares {
		if v != 0 {
			t.Errorf("%s = %v with no samples", name, v)
		}
	}
}

var spinSink uint64

// TestParseRuntimeProfile reads what runtime/pprof really writes.
func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for t0 := time.Now(); time.Since(t0) < 150*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			spinSink += mix64(uint64(i))
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("the profiler took no sample in 150 ms of spinning")
	}
	for _, s := range samples {
		if len(s.Frames) == 0 || s.Frames[0].Func == "" || s.Value <= 0 || s.Count <= 0 {
			t.Fatalf("malformed sample %+v", s)
		}
	}
	// No threshold: under the race detector most samples land in its C
	// runtime, whose stacks stop before any Go frame.
	shares, _ := layerShares(samples)
	if shares["workload.host_share_pct"] == 0 {
		t.Errorf("a loop in the benchmark's own package got no workload share; shares %v", shares)
	}
}

func TestSplitFunc(t *testing.T) {
	for _, c := range []struct{ in, pkg, name string }{
		{"dilos/internal/sim.(*Proc).yield", "dilos/internal/sim", "(*Proc).yield"},
		{"runtime.memmove", "runtime", "memmove"},
		{"internal/runtime/syscall.Syscall6", "internal/runtime/syscall", "Syscall6"},
		{"main.main.func1", "main", "main.func1"},
		{"nodot", "nodot", ""},
	} {
		if pkg, name := splitFunc(c.in); pkg != c.pkg || name != c.name {
			t.Errorf("splitFunc(%q) = %q, %q", c.in, pkg, name)
		}
	}
}
