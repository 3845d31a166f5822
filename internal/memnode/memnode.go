// Package memnode models the memory node of a disaggregated pair: a large,
// mostly-passive pool of DRAM registered with the RNIC and served entirely
// by one-sided RDMA (the paper's §5 "Memory node"). The node itself runs no
// per-request software — requests are satisfied by the (simulated) NIC — so
// the only active code here is region allocation, performed once on the
// control path at setup time.
//
// The region is carved into 4 KiB pages handed out in contiguous ranges by
// AllocRange, or one at a time by AllocPage/FreePage. Like the paper's
// memory node we account the region in 2 MiB huge pages, which is what lets
// the RNIC cache the whole mapping table.
package memnode

import (
	"fmt"
	"sync/atomic"

	"dilos/internal/stats"
)

// PageSize is the transfer granularity of the paging systems.
const PageSize = 4096

// HugePageSize is the backing granularity of the registered region.
const HugePageSize = 2 << 20

// Node is a memory node with one registered RDMA region.
type Node struct {
	mem      []byte
	free     []uint64     // freed page offsets, LIFO
	next     uint64       // bump pointer for never-allocated pages
	inUse    atomic.Int64 // atomic: the transport server reads it while serving
	ProtKey  uint32       // RDMA protection key for the region (checked by the fabric)
	ReadsSrv stats.Counter
	WritesSv stats.Counter
}

// New creates a node with `size` bytes of registered memory (rounded up to
// whole huge pages) guarded by the given protection key.
func New(size uint64, protKey uint32) *Node {
	if size == 0 {
		panic("memnode: zero-size region")
	}
	hp := (size + HugePageSize - 1) / HugePageSize
	return &Node{
		mem:      make([]byte, hp*HugePageSize),
		ProtKey:  protKey,
		ReadsSrv: stats.Counter{Name: "memnode.reads"},
		WritesSv: stats.Counter{Name: "memnode.writes"},
	}
}

// Size returns the registered region size in bytes.
func (n *Node) Size() uint64 { return uint64(len(n.mem)) }

// Key returns the region's protection key (satisfies core.Backing).
func (n *Node) Key() uint32 { return n.ProtKey }

// HugePages returns the number of 2 MiB pages backing the region.
func (n *Node) HugePages() int { return len(n.mem) / HugePageSize }

// PagesInUse returns the number of currently allocated 4 KiB pages.
func (n *Node) PagesInUse() int64 { return n.inUse.Load() }

// AllocPage reserves one 4 KiB page and returns its region offset.
// Pages come back zeroed (freshly registered memory is zero; recycled
// pages are scrubbed on free).
func (n *Node) AllocPage() (uint64, error) {
	if k := len(n.free); k > 0 {
		off := n.free[k-1]
		n.free = n.free[:k-1]
		n.inUse.Add(1)
		return off, nil
	}
	return n.AllocRange(1)
}

// AllocRange reserves n contiguous pages (for a disaggregated region whose
// remote slots are addressed as base + pageIndex·PageSize) and returns the
// base offset. Ranges come only from the bump pointer, never the free list.
func (n *Node) AllocRange(pages uint64) (uint64, error) {
	size := pages * PageSize
	if n.next+size > uint64(len(n.mem)) {
		return 0, fmt.Errorf("memnode: out of memory for %d-page range (%d bytes registered, %d used)",
			pages, len(n.mem), n.next)
	}
	off := n.next
	n.next += size
	n.inUse.Add(int64(pages))
	return off, nil
}

// FreePage returns a page to the free list and scrubs it. Freeing an
// out-of-range or unaligned offset is a control-path programming error
// and panics.
func (n *Node) FreePage(off uint64) {
	if err := n.CheckRange(off, PageSize); err != nil {
		panic(err.Error())
	}
	if off%PageSize != 0 {
		panic("memnode: FreePage of unaligned offset")
	}
	clear(n.mem[off : off+PageSize])
	n.free = append(n.free, off)
	n.inUse.Add(-1)
}

// ReadAt copies region bytes [off, off+len(p)) into p. This is the
// one-sided READ service path used by the fabric. Out-of-range access
// returns an error rather than panicking: on the served (transport) path a
// malformed request must not crash the daemon.
func (n *Node) ReadAt(off uint64, p []byte) error {
	if err := n.CheckRange(off, uint64(len(p))); err != nil {
		return err
	}
	copy(p, n.mem[off:])
	n.ReadsSrv.Inc()
	return nil
}

// WriteAt copies p into the region at off — the one-sided WRITE path.
func (n *Node) WriteAt(off uint64, p []byte) error {
	if err := n.CheckRange(off, uint64(len(p))); err != nil {
		return err
	}
	copy(n.mem[off:], p)
	n.WritesSv.Inc()
	return nil
}

// CopyOut copies region bytes [off, off+len(p)) into p without touching
// the served-op counters. This is the concurrent data path: the transport
// server calls it from many connections at once under its own region
// sharding and counts served ops with its own atomics; the stats.Counter
// fields above stay single-writer (the simulator's).
func (n *Node) CopyOut(off uint64, p []byte) error {
	if err := n.CheckRange(off, uint64(len(p))); err != nil {
		return err
	}
	copy(p, n.mem[off:])
	return nil
}

// CopyIn copies p into the region at off — CopyOut's write twin.
func (n *Node) CopyIn(off uint64, p []byte) error {
	if err := n.CheckRange(off, uint64(len(p))); err != nil {
		return err
	}
	copy(n.mem[off:], p)
	return nil
}

// CheckRange validates that [off, off+length) lies inside the registered
// region, guarding against uint64 overflow in the sum.
func (n *Node) CheckRange(off, length uint64) error {
	size := uint64(len(n.mem))
	if length > size || off > size-length {
		return fmt.Errorf("memnode: access [%d,+%d) outside region of %d bytes",
			off, length, size)
	}
	return nil
}
