package core

import "fmt"

// This file is the compatibility layer (§5 "Compatibility layer"): the DDC
// memory APIs (ddc_malloc / ddc_free over mmap(MAP_DDC)). In the real
// DiLOS a custom ELF loader rebinds an unmodified binary's malloc/free to
// these; Go has no PLT to patch, so applications here call them directly.

// mallocRegionPages is the granularity at which the DDC heap grows.
const mallocRegionPages = 4096 // 16 MiB per region

type heapArena struct {
	base uint64
	size uint64
	used uint64
}

// Malloc is ddc_malloc: it returns disaggregated memory, growing the DDC
// heap with MmapDDC as needed. Allocations are 16-byte aligned; requests
// of a page or more are page-aligned (so per-page guide bitmaps line up).
func (s *System) Malloc(n uint64) (uint64, error) {
	if n == 0 {
		n = 1
	}
	align := uint64(16)
	if n >= PageSize {
		align = PageSize
	}
	n = (n + 15) &^ 15
	if s.heap == nil || alignUp(s.heap.used, align)+n > s.heap.size {
		pages := uint64(mallocRegionPages)
		if need := (n + PageSize - 1) / PageSize; need > pages {
			pages = need
		}
		base, err := s.MmapDDC(pages)
		if err != nil {
			return 0, fmt.Errorf("ddc_malloc: %w", err)
		}
		s.heap = &heapArena{base: base, size: pages * PageSize}
	}
	s.heap.used = alignUp(s.heap.used, align)
	addr := s.heap.base + s.heap.used
	s.heap.used += n
	return addr, nil
}

// Free is ddc_free. The compat heap is a region allocator (like OSv's
// malloc for large objects); fine-grained reuse with live-object tracking
// is the job of the guided allocator in internal/dalloc.
func (s *System) Free(addr, n uint64) {}

func alignUp(x, a uint64) uint64 { return (x + a - 1) &^ (a - 1) }
