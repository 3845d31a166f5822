// Package dalloc is the reproduction's take on DiLOS' modified mimalloc
// (§5 "Prefetchers and guides"): a size-class allocator over disaggregated
// memory that tracks live objects with **per-page allocation bitmaps**
// instead of free lists. The bitmaps are what guided paging (§4.4) reads:
// the cleaner asks for a page's live chunks and moves only those with
// vectored RDMA, and the fault handler re-fetches only those from an
// Action PTE.
//
// Layout follows mimalloc's spirit: small allocations come from size-class
// pages (every chunk in a page has the same size, so one bitmap bit per
// chunk suffices); large allocations get dedicated page runs. Allocator
// metadata lives host-side (it models mimalloc's out-of-band page
// descriptors); only object payloads live in the simulated address space.
package dalloc

import (
	"fmt"
	"math/bits"

	"dilos/internal/pagemgr"
	"dilos/internal/pagetable"
	"dilos/internal/sim"
	"dilos/internal/space"
)

// PageSize is the allocator's page granularity (matches the paging unit).
const PageSize = pagetable.PageSize

// classes are the chunk sizes of size-class pages. 16 B minimum (mimalloc's
// small-object floor), 2048 B maximum (two chunks per page); anything
// larger becomes a dedicated run.
var classes = []uint32{16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 2048}

// maxSmall is the largest size served from a size-class page.
const maxSmall = 2048

// AllocCost models the CPU cost of one malloc/free (mimalloc's fast path).
const AllocCost = 15 * sim.Nanosecond

type pageMeta struct {
	base   uint64 // first byte of the page
	class  uint32 // chunk size; 0 for a large run
	chunks uint32 // chunks per page
	bitmap [4]uint64
	used   uint32
	next   *pageMeta // free-page list per class
	large  uint64    // for large runs: total bytes of the run (head page only)
}

// Allocator is one allocator instance bound to a Space.
type Allocator struct {
	sp    space.Space
	pages map[pagetable.VPN]*pageMeta
	avail []*pageMeta // per class: pages with free chunks (head of list)

	Allocs int64
	Frees  int64
	InUse  int64
}

// New creates an allocator over a Space.
func New(sp space.Space) *Allocator {
	return &Allocator{
		sp:    sp,
		pages: map[pagetable.VPN]*pageMeta{},
		avail: make([]*pageMeta, len(classes)),
	}
}

func classIndex(size uint64) int {
	for i, c := range classes {
		if uint64(c) >= size {
			return i
		}
	}
	return -1
}

// Alloc returns the address of a size-byte object.
func (a *Allocator) Alloc(size uint64) uint64 {
	if size == 0 {
		size = 1
	}
	a.sp.Compute(AllocCost)
	a.Allocs++
	a.InUse++
	if size > maxSmall {
		return a.allocLarge(size)
	}
	ci := classIndex(size)
	pm := a.avail[ci]
	if pm == nil {
		pm = a.newClassPage(ci)
	}
	// Find a clear bit.
	for w := 0; w < 4; w++ {
		free := ^pm.bitmap[w]
		if free == 0 {
			continue
		}
		bit := bits.TrailingZeros64(free)
		idx := uint32(w*64 + bit)
		if idx >= pm.chunks {
			break
		}
		pm.bitmap[w] |= 1 << uint(bit)
		pm.used++
		if pm.used == pm.chunks {
			a.avail[ci] = pm.next
			pm.next = nil
		}
		return pm.base + uint64(idx)*uint64(pm.class)
	}
	panic("dalloc: available page had no free chunk")
}

func (a *Allocator) newClassPage(ci int) *pageMeta {
	base := a.sp.Malloc(PageSize)
	if base%PageSize != 0 {
		panic("dalloc: backing page not aligned")
	}
	pm := &pageMeta{
		base:   base,
		class:  classes[ci],
		chunks: uint32(PageSize / classes[ci]),
		next:   a.avail[ci],
	}
	a.avail[ci] = pm
	a.pages[pagetable.VPNOf(base)] = pm
	return pm
}

func (a *Allocator) allocLarge(size uint64) uint64 {
	npages := (size + PageSize - 1) / PageSize
	base := a.sp.Malloc(npages * PageSize)
	head := &pageMeta{base: base, large: npages * PageSize}
	a.pages[pagetable.VPNOf(base)] = head
	for i := uint64(1); i < npages; i++ {
		a.pages[pagetable.VPNOf(base+i*PageSize)] = head
	}
	return base
}

// Free releases an object by address.
func (a *Allocator) Free(addr uint64) {
	a.sp.Compute(AllocCost)
	pm := a.pages[pagetable.VPNOf(addr)]
	if pm == nil {
		panic(fmt.Sprintf("dalloc: free of unknown address %#x", addr))
	}
	a.Frees++
	a.InUse--
	if pm.class == 0 {
		// Large run: drop all page metadata; the range returns to the
		// region allocator.
		npages := pm.large / PageSize
		for i := uint64(0); i < npages; i++ {
			delete(a.pages, pagetable.VPNOf(pm.base+i*PageSize))
		}
		a.sp.Free(pm.base, pm.large)
		return
	}
	off := addr - pm.base
	if off%uint64(pm.class) != 0 {
		panic(fmt.Sprintf("dalloc: free of interior pointer %#x", addr))
	}
	idx := uint32(off / uint64(pm.class))
	w, bit := idx/64, idx%64
	if pm.bitmap[w]&(1<<bit) == 0 {
		panic(fmt.Sprintf("dalloc: double free of %#x", addr))
	}
	// Like mimalloc, the freed block's first word carries allocator state
	// (the free-list link). This write is what dirties fragmenting pages
	// during DEL churn — and since the chunk is now dead, guided paging
	// excludes exactly these bytes from the write-back (Figure 12's DEL
	// savings).
	a.sp.StoreU64(addr, 0)
	wasFull := pm.used == pm.chunks
	pm.bitmap[w] &^= 1 << bit
	pm.used--
	if wasFull {
		ci := classIndex(uint64(pm.class))
		pm.next = a.avail[ci]
		a.avail[ci] = pm
	}
}

// SizeOf returns the allocated size of the object at addr.
func (a *Allocator) SizeOf(addr uint64) uint64 {
	pm := a.pages[pagetable.VPNOf(addr)]
	if pm == nil {
		panic(fmt.Sprintf("dalloc: SizeOf of unknown address %#x", addr))
	}
	if pm.class == 0 {
		return pm.large
	}
	return uint64(pm.class)
}

// LiveChunks implements pagemgr.EvictionGuide: it reads the page's
// allocation bitmap and returns the live byte ranges, merged down to at
// most pagemgr.MaxVectorSegs segments (the paper's vectored-RDMA sweet
// spot). ok=false means "no information / not worth vectoring" — the page
// manager then moves the whole page.
func (a *Allocator) LiveChunks(vpn pagetable.VPN) ([]pagemgr.Chunk, bool) {
	pm := a.pages[vpn]
	if pm == nil || pm.class == 0 {
		return nil, false // not an allocator page, or a large run
	}
	if pm.used == 0 {
		// Fully dead page: a single degenerate chunk would still move
		// bytes; report the smallest legal vector (one chunk) instead of
		// claiming the whole page.
		return []pagemgr.Chunk{{Off: 0, Len: pm.class}}, true
	}
	if pm.used == pm.chunks {
		return nil, false // fully live: vectoring saves nothing
	}
	// Collect runs of consecutive live chunks.
	var runs []pagemgr.Chunk
	var cur *pagemgr.Chunk
	for idx := uint32(0); idx < pm.chunks; idx++ {
		live := pm.bitmap[idx/64]&(1<<(idx%64)) != 0
		if live {
			off := idx * pm.class
			if cur != nil && cur.Off+cur.Len == off {
				cur.Len += pm.class
			} else {
				runs = append(runs, pagemgr.Chunk{Off: off, Len: pm.class})
				cur = &runs[len(runs)-1]
			}
		} else {
			cur = nil
		}
	}
	// Merge runs with the smallest gaps until we fit the vector cap.
	for len(runs) > pagemgr.MaxVectorSegs {
		best := 1
		bestGap := uint32(PageSize)
		for i := 1; i < len(runs); i++ {
			gap := runs[i].Off - (runs[i-1].Off + runs[i-1].Len)
			if gap < bestGap {
				bestGap = gap
				best = i
			}
		}
		runs[best-1].Len = runs[best].Off + runs[best].Len - runs[best-1].Off
		runs = append(runs[:best], runs[best+1:]...)
	}
	total := uint32(0)
	for _, r := range runs {
		total += r.Len
	}
	if total >= PageSize {
		return nil, false
	}
	return runs, true
}
