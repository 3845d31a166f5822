package pagetable

import "fmt"

// VPN is a virtual page number (virtual address >> PageShift).
type VPN uint64

// Addr returns the first virtual address of the page.
func (v VPN) Addr() uint64 { return uint64(v) << PageShift }

// VPNOf returns the page number containing a virtual address.
func VPNOf(addr uint64) VPN { return VPN(addr >> PageShift) }

// Table is a 4-level radix page table. The leaf level stores PTEs; interior
// levels store child pointers. Gen is the TLB generation: any change that
// could make a cached translation stale (unmap, eviction, permission or
// dirty-bit downgrade) must bump it, which models a TLB shootdown.
type Table struct {
	root *inode
	gen  uint64
	// Walks counts translation walks (for cost accounting diagnostics).
	Walks int64
}

type inode struct {
	children [FanOut]*inode
	leaves   [FanOut]*leaf // only used at level Levels-2
}

type leaf struct {
	ptes [FanOut]PTE
}

// New creates an empty table.
func New() *Table { return &Table{root: &inode{}, gen: 1} }

// Gen returns the current TLB generation.
func (t *Table) Gen() uint64 { return t.gen }

// BumpGen invalidates all TLBs (models an all-core shootdown).
func (t *Table) BumpGen() { t.gen++ }

func index(v VPN, level int) int {
	// level 0 is the root; level Levels-1 indexes into the leaf.
	shift := uint((Levels - 1 - level) * IndexBits)
	return int((uint64(v) >> shift) & (FanOut - 1))
}

func checkVPN(v VPN) {
	if uint64(v) >= 1<<(Levels*IndexBits) {
		panic(fmt.Sprintf("pagetable: VPN %d outside %d-bit space", v, VABits))
	}
}

// Lookup returns the PTE for a page (zero value = invalid) without
// allocating intermediate levels.
func (t *Table) Lookup(v VPN) PTE {
	checkVPN(v)
	t.Walks++
	n := t.root
	for level := 0; level < Levels-2; level++ {
		n = n.children[index(v, level)]
		if n == nil {
			return 0
		}
	}
	lf := n.leaves[index(v, Levels-2)]
	if lf == nil {
		return 0
	}
	return lf.ptes[index(v, Levels-1)]
}

// Entry returns a pointer to the PTE slot for a page, allocating the path.
// The fault handler uses this to transition tags in place.
func (t *Table) Entry(v VPN) *PTE {
	checkVPN(v)
	n := t.root
	for level := 0; level < Levels-2; level++ {
		idx := index(v, level)
		if n.children[idx] == nil {
			n.children[idx] = &inode{}
		}
		n = n.children[idx]
	}
	idx := index(v, Levels-2)
	if n.leaves[idx] == nil {
		n.leaves[idx] = &leaf{}
	}
	return &n.leaves[idx].ptes[index(v, Levels-1)]
}

// Set stores a PTE for a page, allocating the path.
func (t *Table) Set(v VPN, e PTE) { *t.Entry(v) = e }

// Clear resets a page's PTE to invalid. It does not bump the generation;
// callers that removed a live translation must BumpGen themselves.
func (t *Table) Clear(v VPN) {
	if p := t.peek(v); p != nil {
		*p = 0
	}
}

func (t *Table) peek(v VPN) *PTE {
	checkVPN(v)
	n := t.root
	for level := 0; level < Levels-2; level++ {
		n = n.children[index(v, level)]
		if n == nil {
			return nil
		}
	}
	lf := n.leaves[index(v, Levels-2)]
	if lf == nil {
		return nil
	}
	return &lf.ptes[index(v, Levels-1)]
}

// Range calls fn with a pointer to each mapped (non-invalid) PTE in
// [start, end). Iteration order is ascending VPN. fn may mutate the PTE in place; returning false
// stops the scan.
func (t *Table) Range(start, end VPN, fn func(v VPN, e *PTE) bool) {
	for v := start; v < end; {
		p := t.peek(v)
		if p == nil {
			// Skip to the next leaf boundary to avoid walking empty space
			// one page at a time.
			v = (v + FanOut) &^ (FanOut - 1)
			continue
		}
		if p2 := *p; p2 != 0 {
			if !fn(v, p) {
				return
			}
		}
		v++
	}
}
