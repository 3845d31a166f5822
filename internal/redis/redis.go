// Package redis is a from-scratch, in-memory key-value store in the style
// of Redis 6, built so that its *data structures live in the simulated
// disaggregated address space*: the dict's bucket array, dict entries, SDS
// strings, ziplists, and quicklists are all allocated with the guided
// allocator and accessed through space.Space — which is what makes the
// paper's Redis evaluation (Figure 10, Table 4, Figure 12) and its
// app-aware guides (§6.3) reproducible. Commands: SET, GET, DEL, RPUSH,
// LRANGE.
//
// Layouts (little-endian):
//
//	SDS     [len u32][alloc u32][bytes…]            (header-first sdshdr)
//	entry   [key sds][val ptr][next entry]          (24 B dictEntry)
//	ziplist [zlbytes u32][count u32]([elen u32][bytes…])*
//	qlnode  [prev][next][zl][count u32][pad u32]    (32 B quicklistNode)
package redis

import (
	"dilos/internal/dalloc"
	"dilos/internal/sim"
	"dilos/internal/space"
)

// Costs models Redis' command-processing CPU outside data access.
type Costs struct {
	Dispatch sim.Time // protocol parse + command lookup
	HashStep sim.Time // per 8 bytes hashed
}

// DefaultCosts returns testbed-like constants.
func DefaultCosts() Costs {
	return Costs{
		Dispatch: 300 * sim.Nanosecond,
		HashStep: 2 * sim.Nanosecond,
	}
}

// Server is one Redis instance bound to a Space.
type Server struct {
	sp    space.Space
	alloc *dalloc.Allocator
	dict  *Dict
	costs Costs

	// Hooks for the app-aware guides (installed by the loader, §5): the
	// unmodified command implementations below call them at the same
	// points DiLOS' trampolines would.
	OnGetValue    func(sdsAddr uint64)  // GET found its value object
	OnLRangeStart func(headNode uint64) // LRANGE begins at this node
	OnLRangeNode  func(node, zl uint64) // LRANGE visits a node
	OnLRangeEnd   func()                // LRANGE finished
}

// NewServer creates a server whose structures live in sp.
func NewServer(sp space.Space) *Server {
	s := &Server{sp: sp, alloc: dalloc.New(sp), costs: DefaultCosts()}
	s.dict = NewDict(sp, s.alloc)
	return s
}

// Allocator exposes the guided allocator (the eviction guide for §4.4).
func (s *Server) Allocator() *dalloc.Allocator { return s.alloc }

// --- SDS ---

const sdsHeader = 8

// NewSDS allocates an SDS holding val.
func (s *Server) NewSDS(val []byte) uint64 {
	addr := s.alloc.Alloc(uint64(sdsHeader + len(val)))
	s.sp.StoreU32(addr, uint32(len(val)))
	s.sp.StoreU32(addr+4, uint32(s.alloc.SizeOf(addr)-sdsHeader))
	s.sp.Store(addr+sdsHeader, val)
	return addr
}

// SDSRead copies an SDS body into a host buffer.
func (s *Server) SDSRead(addr uint64) []byte {
	n := s.sp.LoadU32(addr)
	out := make([]byte, n)
	s.sp.Load(addr+sdsHeader, out)
	return out
}

// FreeSDS releases an SDS.
func (s *Server) FreeSDS(addr uint64) { s.alloc.Free(addr) }

// --- commands ---

// Set stores key → val (a fresh SDS). Replaces an existing value.
func (s *Server) Set(key, val []byte) {
	s.sp.Compute(s.costs.Dispatch)
	sds := s.NewSDS(val)
	if old, ok := s.dict.Insert(key, sds); ok {
		s.FreeSDS(old)
	}
}

// Get returns the value for key, or nil.
func (s *Server) Get(key []byte) []byte {
	s.sp.Compute(s.costs.Dispatch)
	val, ok := s.dict.Find(key)
	if !ok {
		return nil
	}
	if s.OnGetValue != nil {
		s.OnGetValue(val)
	}
	return s.SDSRead(val)
}

// Del removes key, returning whether it existed. The value's chunks go
// back to the allocator — which is what leaves pages with dead areas for
// guided paging to skip (Figure 12's DEL phase).
func (s *Server) Del(key []byte) bool {
	s.sp.Compute(s.costs.Dispatch)
	val, ok := s.dict.Delete(key)
	if !ok {
		return false
	}
	s.FreeSDS(val)
	return true
}

// RPush appends val to the list at key (creating it), returning its new
// length.
func (s *Server) RPush(key, val []byte) uint64 {
	s.sp.Compute(s.costs.Dispatch)
	var ql *Quicklist
	if addr, ok := s.dict.Find(key); ok {
		ql = s.openQuicklist(addr)
	} else {
		ql = s.NewQuicklist()
		s.dict.Insert(key, ql.handleAddr)
	}
	ql.Push(val)
	return ql.Len()
}

// LRange returns elements [start, stop] of the list at key (stop
// inclusive, as in Redis).
func (s *Server) LRange(key []byte, start, stop int) [][]byte {
	s.sp.Compute(s.costs.Dispatch)
	addr, ok := s.dict.Find(key)
	if !ok {
		return nil
	}
	ql := s.openQuicklist(addr)
	return ql.Range(start, stop, s.OnLRangeStart, s.OnLRangeNode, s.OnLRangeEnd)
}
