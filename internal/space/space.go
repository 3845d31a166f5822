// Package space defines the memory abstraction workloads program against.
// A Space is a flat virtual address space with typed accessors plus a CPU
// cost hook — the only interface quicksort, k-means, the snappy codec, the
// dataframe, GAPBS, and Redis see. DiLOS and Fastswap both provide Space
// implementations (paging systems are transparent, which is the paper's
// whole point); the Local implementation backs unit tests and the
// 100 %-local reference runs.
package space

import "dilos/internal/sim"

// Space is a byte-addressable virtual memory with allocation.
type Space interface {
	// Load copies len(p) bytes at addr into p.
	Load(addr uint64, p []byte)
	// Store copies p to addr.
	Store(addr uint64, p []byte)
	// LoadU64/StoreU64 and friends access little-endian words that must
	// not cross page boundaries.
	LoadU64(addr uint64) uint64
	StoreU64(addr uint64, v uint64)
	LoadU32(addr uint64) uint32
	StoreU32(addr uint64, v uint32)
	LoadU8(addr uint64) byte
	// Malloc reserves n bytes of zeroed memory and returns its address.
	Malloc(n uint64) uint64
	// Free releases a Malloc'd range.
	Free(addr uint64, n uint64)
	// Compute charges d of CPU time to the calling context.
	Compute(d sim.Time)
	// Now returns the current virtual time.
	Now() sim.Time
}

// Local is a host-memory Space with no paging: the reference
// implementation for tests and all-local baselines. The zero cost model
// charges nothing; attach a Proc to account CPU time.
type Local struct {
	Mem  []byte
	P    *sim.Proc // optional
	next uint64
}

// NewLocal creates a Local space of the given size.
func NewLocal(size uint64) *Local { return &Local{Mem: make([]byte, size)} }

// Load implements Space.
func (l *Local) Load(addr uint64, p []byte) { copy(p, l.Mem[addr:]) }

// Store implements Space.
func (l *Local) Store(addr uint64, p []byte) { copy(l.Mem[addr:], p) }

// LoadU64 implements Space.
func (l *Local) LoadU64(addr uint64) uint64 {
	b := l.Mem[addr : addr+8]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// StoreU64 implements Space.
func (l *Local) StoreU64(addr uint64, v uint64) {
	b := l.Mem[addr : addr+8]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
}

// LoadU32 implements Space.
func (l *Local) LoadU32(addr uint64) uint32 {
	b := l.Mem[addr : addr+4]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// StoreU32 implements Space.
func (l *Local) StoreU32(addr uint64, v uint32) {
	b := l.Mem[addr : addr+4]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// LoadU8 implements Space.
func (l *Local) LoadU8(addr uint64) byte { return l.Mem[addr] }

// Malloc implements Space with a bump allocator (addresses start at 4096
// so that 0 can serve as a nil pointer).
func (l *Local) Malloc(n uint64) uint64 {
	if l.next == 0 {
		l.next = 4096
	}
	addr := l.next
	n = (n + 15) &^ 15
	if addr+n > uint64(len(l.Mem)) {
		panic("space: Local out of memory")
	}
	l.next += n
	return addr
}

// Free implements Space (bump allocator: no-op).
func (l *Local) Free(addr, n uint64) {}

// Compute implements Space.
func (l *Local) Compute(d sim.Time) {
	if l.P != nil {
		l.P.Advance(d)
	}
}

// Now implements Space.
func (l *Local) Now() sim.Time {
	if l.P != nil {
		return l.P.Now()
	}
	return 0
}

// Proc returns the attached sim process (nil if none) — lets barrier-based
// multi-worker code treat Local like the paging-backed spaces.
func (l *Local) Proc() *sim.Proc { return l.P }
