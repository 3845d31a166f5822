// Package trace records and replays page-access traces. A Recorder hooks
// a system's fault stream (VPN, virtual time, fault kind) into a bounded
// ring; traces can be saved to a compact binary format, inspected for
// stride/locality statistics, and replayed through any space.Space — which
// is how prefetcher changes are evaluated against captured behaviour
// instead of hand-written loops.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"dilos/internal/pagetable"
	"dilos/internal/sim"
	"dilos/internal/space"
)

// Kind classifies a recorded event.
type Kind uint8

// Event kinds.
const (
	Major Kind = iota
	Minor
	Hit
	Write
)

func (k Kind) String() string {
	switch k {
	case Major:
		return "major"
	case Minor:
		return "minor"
	case Hit:
		return "hit"
	case Write:
		return "write"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one recorded page access. Core is the ID of the core whose
// fault handler observed the access (0 when the producer predates core
// attribution or the trace was saved in the v1 format).
type Event struct {
	At   sim.Time
	VPN  pagetable.VPN
	Kind Kind
	Core int
}

// Recorder accumulates events in a bounded ring (oldest dropped first).
type Recorder struct {
	Cap     int
	events  []Event
	start   int
	dropped int64
}

// NewRecorder creates a recorder keeping up to cap events (≤0 → 1<<20).
func NewRecorder(cap int) *Recorder {
	if cap <= 0 {
		cap = 1 << 20
	}
	return &Recorder{Cap: cap}
}

// RecordOn appends an event attributed to the given core.
func (r *Recorder) RecordOn(at sim.Time, vpn pagetable.VPN, kind Kind, core int) {
	e := Event{At: at, VPN: vpn, Kind: kind, Core: core}
	if len(r.events) < r.Cap {
		r.events = append(r.events, e)
		return
	}
	r.events[r.start] = e
	r.start = (r.start + 1) % r.Cap
	r.dropped++
}

// Len returns the number of retained events.
func (r *Recorder) Len() int { return len(r.events) }

// Dropped returns how many events the ring evicted.
func (r *Recorder) Dropped() int64 { return r.dropped }

// Events returns the retained events in arrival order.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.start:]...)
	out = append(out, r.events[:r.start]...)
	return out
}

// Stats summarizes a trace for prefetcher design: kind counts, the
// distribution of strides, and how much of the trace a pure sequential
// prefetcher could have covered.
type Stats struct {
	Counts        [4]int64
	UniquePages   int
	SeqFraction   float64 // |stride| == 1 share of transitions
	TopStride     int64
	TopStrideFrac float64
}

// Analyze computes Stats over the retained events.
func (r *Recorder) Analyze() Stats {
	ev := r.Events()
	var st Stats
	pages := map[pagetable.VPN]bool{}
	strides := map[int64]int{}
	var seq, total int
	for i, e := range ev {
		st.Counts[e.Kind]++
		pages[e.VPN] = true
		if i > 0 {
			d := int64(e.VPN) - int64(ev[i-1].VPN)
			strides[d]++
			total++
			if d == 1 || d == -1 {
				seq++
			}
		}
	}
	st.UniquePages = len(pages)
	if total > 0 {
		st.SeqFraction = float64(seq) / float64(total)
		best, bestN := int64(0), 0
		for d, n := range strides {
			if n > bestN {
				best, bestN = d, n
			}
		}
		st.TopStride = best
		st.TopStrideFrac = float64(bestN) / float64(total)
	}
	return st
}

// Save writes the trace in a compact binary format:
// "DTR2" u32-count, then per event varint(dt) varint(zigzag dvpn) u8 kind
// uvarint(core). The v1 format ("DTRC", no core byte) is still loadable.
func (r *Recorder) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("DTR2"); err != nil {
		return err
	}
	ev := r.Events()
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(ev)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	prevT := sim.Time(0)
	prevV := pagetable.VPN(0)
	for _, e := range ev {
		n := binary.PutUvarint(buf[:], uint64(e.At-prevT))
		bw.Write(buf[:n])
		n = binary.PutVarint(buf[:], int64(e.VPN)-int64(prevV))
		bw.Write(buf[:n])
		bw.WriteByte(byte(e.Kind))
		n = binary.PutUvarint(buf[:], uint64(e.Core))
		bw.Write(buf[:n])
		prevT, prevV = e.At, e.VPN
	}
	return bw.Flush()
}

// Load reads a trace written by Save — either the current "DTR2" format
// or the pre-core "DTRC" layout (every event then reports Core 0).
func Load(rd io.Reader) ([]Event, error) {
	br := bufio.NewReader(rd)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	var hasCore bool
	switch string(magic) {
	case "DTRC":
	case "DTR2":
		hasCore = true
	default:
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint32(hdr[:])
	// Never trust the header for the allocation size (a corrupt count
	// would be an OOM); grow as events actually decode.
	capHint := count
	if capHint > 1<<16 {
		capHint = 1 << 16
	}
	events := make([]Event, 0, capHint)
	prevT := sim.Time(0)
	prevV := pagetable.VPN(0)
	for i := uint32(0); i < count; i++ {
		dt, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		dv, err := binary.ReadVarint(br)
		if err != nil {
			return nil, err
		}
		k, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		if Kind(k) > Write {
			return nil, fmt.Errorf("trace: invalid event kind %d", k)
		}
		var core uint64
		if hasCore {
			core, err = binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			if core > 1<<16 {
				return nil, fmt.Errorf("trace: implausible core ID %d", core)
			}
		}
		prevT += sim.Time(dt)
		prevV = pagetable.VPN(int64(prevV) + dv)
		events = append(events, Event{At: prevT, VPN: prevV, Kind: Kind(k), Core: int(core)})
	}
	return events, nil
}

// Replay drives a Space with the access pattern of a trace: one touch per
// event at the event's page (reads for Major/Minor/Hit, a store for
// Write), pages rebased onto `base`. Inter-event think time is reproduced
// as Compute so the paging system sees the original pacing. Returns the
// number of events replayed.
func Replay(sp space.Space, base uint64, events []Event) int {
	if len(events) == 0 {
		return 0
	}
	minV := events[0].VPN
	for _, e := range events {
		if e.VPN < minV {
			minV = e.VPN
		}
	}
	prev := events[0].At
	for _, e := range events {
		if think := e.At - prev; think > 0 {
			sp.Compute(think / 4) // think time net of the original fault cost
		}
		prev = e.At
		addr := base + uint64(e.VPN-minV)*pagetable.PageSize
		if e.Kind == Write {
			sp.StoreU64(addr, uint64(e.VPN))
		} else {
			sp.LoadU8(addr)
		}
	}
	return len(events)
}

// Span returns the page-span of a trace (max VPN − min VPN + 1).
func Span(events []Event) uint64 {
	if len(events) == 0 {
		return 0
	}
	minV, maxV := events[0].VPN, events[0].VPN
	for _, e := range events {
		if e.VPN < minV {
			minV = e.VPN
		}
		if e.VPN > maxV {
			maxV = e.VPN
		}
	}
	return uint64(maxV-minV) + 1
}
