// Package dram manages the computing node's local page frames: a fixed-size
// pool backing the local cache of the disaggregated address space. It
// provides O(1) allocation from a free list plus the intrusive LRU list the
// page manager's cleaner and reclaimer walk (§4.4). The pool knows nothing
// about PTEs; the page manager records each frame's owning virtual page so
// eviction can find the mapping to tear down.
package dram

import (
	"fmt"

	"dilos/internal/pagetable"
)

// FrameID identifies a frame in the pool.
type FrameID int32

// NoFrame is the nil FrameID.
const NoFrame FrameID = -1

// NoVPN marks a frame with no owner.
const NoVPN pagetable.VPN = ^pagetable.VPN(0)

// NoVec marks a frame with no clean-vector log entry.
const NoVec int32 = -1

// Frame is per-frame metadata.
type Frame struct {
	VPN    pagetable.VPN // owning virtual page, NoVPN when unowned
	Pinned bool          // excluded from reclamation (in-flight IO)
	VecIdx int32         // page manager's clean-vector log index, NoVec when none
	next   FrameID
	prev   FrameID
	shard  int16 // which LRU shard the frame is (or was last) on
	inLRU  bool
	free   bool
}

// Shard returns the LRU shard the frame is homed to (meaningful while the
// frame is on a list).
func (f *Frame) Shard() int { return int(f.shard) }

// lruList is one intrusive LRU list over a pool's frames: front = coldest
// (next clock victim), back = most recently inserted/rotated. The pool owns
// one per shard — a frame's link fields live in Frame, and a frame is on
// at most one list.
type lruList struct {
	head, tail FrameID
	n          int
}

// Pool is a frame allocator over a contiguous local-DRAM arena. Its LRU
// state is an array of per-shard clock lists (one by default); sharded
// callers home each frame to the faulting core's list so the cleaner and
// reclaimer sweep shared-nothing queues.
type Pool struct {
	mem    []byte
	frames []Frame
	free   []FrameID
	lists  []lruList
}

// NewPool creates a pool of `frames` page frames with a single LRU shard.
func NewPool(frames int) *Pool {
	if frames <= 0 {
		panic("dram: pool needs at least one frame")
	}
	p := &Pool{
		mem:    make([]byte, frames*pagetable.PageSize),
		frames: make([]Frame, frames),
		free:   make([]FrameID, 0, frames),
		lists:  []lruList{{head: NoFrame, tail: NoFrame}},
	}
	for i := frames - 1; i >= 0; i-- {
		p.frames[i] = Frame{VPN: NoVPN, VecIdx: NoVec, next: NoFrame, prev: NoFrame, free: true}
		p.free = append(p.free, FrameID(i))
	}
	return p
}

// SetShards resizes the pool to n per-core LRU shards. Must be called
// before any frame is on a list (boot time).
func (p *Pool) SetShards(n int) {
	if n <= 0 {
		panic("dram: SetShards needs n >= 1")
	}
	for i := range p.lists {
		if p.lists[i].n != 0 {
			panic("dram: SetShards with frames on the LRU")
		}
	}
	p.lists = make([]lruList, n)
	for i := range p.lists {
		p.lists[i] = lruList{head: NoFrame, tail: NoFrame}
	}
}

// FreeCount returns the number of unallocated frames.
func (p *Pool) FreeCount() int { return len(p.free) }

// Used returns the number of allocated frames.
func (p *Pool) Used() int { return len(p.frames) - len(p.free) }

// Alloc takes a frame from the free list. ok is false when the pool is
// exhausted — the caller (the page manager) then blocks on the reclaimer.
func (p *Pool) Alloc() (FrameID, bool) {
	k := len(p.free)
	if k == 0 {
		return NoFrame, false
	}
	id := p.free[k-1]
	p.free = p.free[:k-1]
	f := &p.frames[id]
	f.free = false
	f.VPN = NoVPN
	f.Pinned = false
	f.VecIdx = NoVec
	f.shard = 0
	return id, true
}

// Free returns a frame to the free list. The frame must not be on the LRU.
func (p *Pool) Free(id FrameID) {
	f := p.frame(id)
	if f.free {
		panic(fmt.Sprintf("dram: double free of frame %d", id))
	}
	if f.inLRU {
		panic(fmt.Sprintf("dram: freeing frame %d still on LRU", id))
	}
	f.free = true
	f.VPN = NoVPN
	f.Pinned = false
	f.VecIdx = NoVec
	p.free = append(p.free, id)
}

// Bytes returns the frame's backing memory.
func (p *Pool) Bytes(id FrameID) []byte {
	p.frame(id)
	off := int(id) * pagetable.PageSize
	return p.mem[off : off+pagetable.PageSize : off+pagetable.PageSize]
}

// Meta returns the frame's metadata for reading and mutation.
func (p *Pool) Meta(id FrameID) *Frame { return p.frame(id) }

func (p *Pool) frame(id FrameID) *Frame {
	if id < 0 || int(id) >= len(p.frames) {
		panic(fmt.Sprintf("dram: bad frame id %d", id))
	}
	return &p.frames[id]
}

// LRULen returns the number of frames across all LRU shards.
func (p *Pool) LRULen() int {
	n := 0
	for i := range p.lists {
		n += p.lists[i].n
	}
	return n
}

// LRULenOf returns the number of frames on one shard's list.
func (p *Pool) LRULenOf(shard int) int { return p.lists[shard].n }

// LRUPushBack appends a frame at the hot end of shard 0's LRU list. Newly
// allocated pages enter here (§4.4: "The allocator inserts all newly
// allocated pages into an LRU list").
func (p *Pool) LRUPushBack(id FrameID) { p.LRUPushBackOn(0, id) }

// LRUPushBackOn appends a frame at the hot end of one shard's list and
// homes the frame there; later LRURotate/LRURemove calls touch only that
// shard.
func (p *Pool) LRUPushBackOn(shard int, id FrameID) {
	f := p.frame(id)
	f.shard = int16(shard)
	p.listPushBack(&p.lists[shard], id)
}

// LRURemove unlinks a frame from its home shard's LRU list.
func (p *Pool) LRURemove(id FrameID) {
	f := p.frame(id)
	p.listRemove(&p.lists[f.shard], id)
}

// LRUFront returns the coldest frame of shard 0 (clock hand position), or
// NoFrame.
func (p *Pool) LRUFront() FrameID { return p.lists[0].head }

// LRUFrontOf returns the coldest frame of one shard, or NoFrame.
func (p *Pool) LRUFrontOf(shard int) FrameID { return p.lists[shard].head }

// LRURotate moves a frame to the hot end of its home shard — the clock
// algorithm's "second chance" for pages whose accessed bit was set.
func (p *Pool) LRURotate(id FrameID) {
	f := p.frame(id)
	l := &p.lists[f.shard]
	p.listRemove(l, id)
	p.listPushBack(l, id)
}

// WalkShard calls fn for each frame of one shard's list from cold to hot;
// returning false stops. fn must not mutate the list; use the returned ids
// afterwards.
func (p *Pool) WalkShard(shard int, fn func(id FrameID, f *Frame) bool) {
	p.listWalk(&p.lists[shard], fn)
}

// listPushBack appends a frame at the hot end of one LRU list.
func (p *Pool) listPushBack(l *lruList, id FrameID) {
	f := p.frame(id)
	if f.inLRU {
		panic(fmt.Sprintf("dram: frame %d already on LRU", id))
	}
	if f.free {
		panic(fmt.Sprintf("dram: free frame %d pushed to LRU", id))
	}
	f.inLRU = true
	f.prev = l.tail
	f.next = NoFrame
	if l.tail != NoFrame {
		p.frames[l.tail].next = id
	} else {
		l.head = id
	}
	l.tail = id
	l.n++
}

// listRemove unlinks a frame from one LRU list.
func (p *Pool) listRemove(l *lruList, id FrameID) {
	f := p.frame(id)
	if !f.inLRU {
		panic(fmt.Sprintf("dram: frame %d not on LRU", id))
	}
	if f.prev != NoFrame {
		p.frames[f.prev].next = f.next
	} else {
		l.head = f.next
	}
	if f.next != NoFrame {
		p.frames[f.next].prev = f.prev
	} else {
		l.tail = f.prev
	}
	f.inLRU = false
	f.next, f.prev = NoFrame, NoFrame
	l.n--
}

// listWalk calls fn for each frame of one list from cold to hot.
func (p *Pool) listWalk(l *lruList, fn func(id FrameID, f *Frame) bool) {
	for id := l.head; id != NoFrame; id = p.frames[id].next {
		if !fn(id, &p.frames[id]) {
			return
		}
	}
}
