package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"dilos/internal/pagetable"
	"dilos/internal/sim"
	"dilos/internal/space"
)

func TestRecorderOrderAndRing(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 6; i++ {
		r.RecordOn(sim.Time(i), pagetable.VPN(i), Major, 0)
	}
	if r.Len() != 4 || r.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d", r.Len(), r.Dropped())
	}
	ev := r.Events()
	for i, e := range ev {
		if e.VPN != pagetable.VPN(i+2) {
			t.Fatalf("events = %v", ev)
		}
	}
}

func TestAnalyze(t *testing.T) {
	r := NewRecorder(0)
	// 10 sequential majors, then 5 stride-16 minors, then a hit.
	for i := 0; i < 10; i++ {
		r.RecordOn(sim.Time(i), pagetable.VPN(100+i), Major, 0)
	}
	for i := 0; i < 5; i++ {
		r.RecordOn(sim.Time(20+i), pagetable.VPN(200+16*i), Minor, 0)
	}
	r.RecordOn(30, 500, Hit, 0)
	st := r.Analyze()
	if st.Counts[Major] != 10 || st.Counts[Minor] != 5 || st.Counts[Hit] != 1 {
		t.Fatalf("counts = %v", st.Counts)
	}
	if st.UniquePages != 16 {
		t.Fatalf("unique = %d", st.UniquePages)
	}
	if st.SeqFraction < 0.5 {
		t.Fatalf("seq fraction = %v", st.SeqFraction)
	}
	if st.TopStride != 1 {
		t.Fatalf("top stride = %d", st.TopStride)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	r := NewRecorder(0)
	rng := rand.New(rand.NewSource(5))
	var want []Event
	at := sim.Time(0)
	for i := 0; i < 500; i++ {
		at += sim.Time(rng.Intn(10000))
		e := Event{At: at, VPN: pagetable.VPN(rng.Intn(1 << 20)), Kind: Kind(rng.Intn(4)), Core: rng.Intn(8)}
		r.RecordOn(e.At, e.VPN, e.Kind, e.Core)
		want = append(want, e)
	}
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("len %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestLoadV1Compat hand-builds a pre-core "DTRC" file and checks it still
// loads, with every event attributed to core 0.
func TestLoadV1Compat(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("DTRC")
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 2)
	buf.Write(hdr[:])
	var vb [binary.MaxVarintLen64]byte
	put := func(dt uint64, dv int64, k Kind) {
		n := binary.PutUvarint(vb[:], dt)
		buf.Write(vb[:n])
		n = binary.PutVarint(vb[:], dv)
		buf.Write(vb[:n])
		buf.WriteByte(byte(k))
	}
	put(100, 7, Major)
	put(50, -3, Write)
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{At: 100, VPN: 7, Kind: Major, Core: 0},
		{At: 150, VPN: 4, Kind: Write, Core: 0},
	}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("NOPE1234"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// Property: Save/Load round-trips any event sequence.
func TestQuickSaveLoad(t *testing.T) {
	f := func(raw []struct {
		Dt   uint16
		VPN  uint32
		Kind uint8
		Core uint8
	}) bool {
		r := NewRecorder(0)
		at := sim.Time(0)
		for _, x := range raw {
			at += sim.Time(x.Dt)
			r.RecordOn(at, pagetable.VPN(x.VPN), Kind(x.Kind%4), int(x.Core))
		}
		var buf bytes.Buffer
		if err := r.Save(&buf); err != nil {
			return false
		}
		got, err := Load(&buf)
		if err != nil {
			return false
		}
		want := r.Events()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReplayTouchesPages(t *testing.T) {
	events := []Event{
		{At: 0, VPN: 10, Kind: Major},
		{At: 1000, VPN: 11, Kind: Write},
		{At: 2000, VPN: 15, Kind: Minor},
	}
	sp := space.NewLocal(1 << 20)
	base := sp.Malloc(Span(events) * pagetable.PageSize)
	if n := Replay(sp, base, events); n != 3 {
		t.Fatalf("replayed %d", n)
	}
	// The write event must have landed (page 11 rebased to index 1).
	if sp.LoadU64(base+1*pagetable.PageSize) != 11 {
		t.Fatal("write event not replayed")
	}
	if Span(events) != 6 {
		t.Fatalf("span = %d", Span(events))
	}
}

func TestReplayEmpty(t *testing.T) {
	sp := space.NewLocal(4096)
	if Replay(sp, 0, nil) != 0 {
		t.Fatal("empty replay did something")
	}
}
