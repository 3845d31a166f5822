package aifm

import "dilos/internal/sim"

// Array is AIFM's remoteable array container: a fixed-element-size array
// chunked into remoteable objects, with a sequential-streak detector that
// drives the streaming prefetcher. This is the container the paper's
// snappy and DataFrame ports are built on.
type Array struct {
	sys      *System
	elemSize uint32
	n        uint64
	perChunk uint64
	chunks   []int // object ids

	lastChunk uint64
	streak    int
	dir       int64
}

// NewArray allocates a remoteable array of n elements of elemSize bytes.
func (s *System) NewArray(elemSize uint32, n uint64) (*Array, error) {
	if elemSize == 0 || elemSize > ChunkSize {
		panic("aifm: element size must be in (0, ChunkSize]")
	}
	perChunk := uint64(ChunkSize / elemSize)
	a := &Array{sys: s, elemSize: elemSize, n: n, perChunk: perChunk, dir: 1}
	nChunks := (n + perChunk - 1) / perChunk
	for i := uint64(0); i < nChunks; i++ {
		id, err := s.newObject(uint32(perChunk) * elemSize)
		if err != nil {
			return nil, err
		}
		a.chunks = append(a.chunks, id)
	}
	return a, nil
}

// Len returns the number of elements.
func (a *Array) Len() uint64 { return a.n }

// chunkOf returns (chunk index, byte offset within chunk) for element i.
func (a *Array) chunkOf(i uint64) (uint64, uint32) {
	if i >= a.n {
		panic("aifm: array index out of range")
	}
	return i / a.perChunk, uint32(i%a.perChunk) * a.elemSize
}

// access makes element i's chunk resident (charging the deref check) and
// runs the streaming prefetcher.
func (a *Array) access(p *sim.Proc, i uint64) []byte {
	a.sys.DerefChecks.Inc()
	p.Advance(a.sys.Costs.DerefCheck)
	c, off := a.chunkOf(i)
	a.noteAccess(p, c)
	data := a.sys.ensureLocal(p, a.chunks[c])
	p.Advance(a.sys.Costs.ElementCopy)
	return data[off : off+a.elemSize]
}

// noteAccess updates the sequential-streak detector and, on an established
// stream, keeps a deep window of chunks in flight — AIFM's multi-threaded
// streaming prefetcher (the reason it almost perfectly overlaps compute
// and network on snappy, Figure 7(c)/(d)).
func (a *Array) noteAccess(p *sim.Proc, c uint64) {
	switch {
	case c == a.lastChunk:
		return
	case int64(c) == int64(a.lastChunk)+a.dir:
		a.streak++
	case int64(c) == int64(a.lastChunk)-a.dir:
		a.dir = -a.dir
		a.streak = 1
	default:
		a.streak = 0
	}
	a.lastChunk = c
	if a.streak < 2 {
		return
	}
	depth := a.sys.pfDepth
	ids := make([]int, 0, depth)
	for k := int64(1); k <= int64(depth); k++ {
		next := int64(c) + a.dir*k
		if next < 0 || next >= int64(len(a.chunks)) {
			break
		}
		ids = append(ids, a.chunks[next])
	}
	a.sys.prefetch(p, ids)
}

// ReadU64 reads element i as a little-endian uint64 (elemSize must be 8).
func (a *Array) ReadU64(t *Thread, i uint64) uint64 {
	b := a.access(t.p, i)
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// WriteU64 writes element i (elemSize must be 8).
func (a *Array) WriteU64(t *Thread, i uint64, v uint64) {
	b := a.access(t.p, i)
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
	a.markDirty(i)
}

// ReadBytes copies elements [i, i+len(buf)) of a byte array into buf.
func (a *Array) ReadBytes(t *Thread, i uint64, buf []byte) {
	if a.elemSize != 1 {
		panic("aifm: ReadBytes requires a byte array")
	}
	for len(buf) > 0 {
		c, off := a.chunkOf(i)
		n := int(uint64(ChunkSize) - uint64(off))
		if n > len(buf) {
			n = len(buf)
		}
		a.sys.DerefChecks.Inc()
		t.p.Advance(a.sys.Costs.DerefCheck)
		a.noteAccess(t.p, c)
		data := a.sys.ensureLocal(t.p, a.chunks[c])
		copy(buf[:n], data[off:])
		t.p.Advance(sim.Time(n/64+1) * a.sys.Costs.ElementCopy)
		buf = buf[n:]
		i += uint64(n)
	}
}

// WriteBytes copies buf into elements [i, i+len(buf)).
func (a *Array) WriteBytes(t *Thread, i uint64, buf []byte) {
	if a.elemSize != 1 {
		panic("aifm: WriteBytes requires a byte array")
	}
	for len(buf) > 0 {
		c, off := a.chunkOf(i)
		n := int(uint64(ChunkSize) - uint64(off))
		if n > len(buf) {
			n = len(buf)
		}
		a.sys.DerefChecks.Inc()
		t.p.Advance(a.sys.Costs.DerefCheck)
		a.noteAccess(t.p, c)
		data := a.sys.ensureLocal(t.p, a.chunks[c])
		copy(data[off:], buf[:n])
		a.sys.objects[a.chunks[c]].dirty = true
		t.p.Advance(sim.Time(n/64+1) * a.sys.Costs.ElementCopy)
		buf = buf[n:]
		i += uint64(n)
	}
}

func (a *Array) markDirty(i uint64) {
	c, _ := a.chunkOf(i)
	a.sys.objects[a.chunks[c]].dirty = true
}
