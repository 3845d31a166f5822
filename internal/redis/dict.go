package redis

import (
	"dilos/internal/dalloc"
	"dilos/internal/sim"
	"dilos/internal/space"
)

// Dict is Redis' main hash table: a power-of-two bucket array of entry
// pointers living in disaggregated memory, chained dictEntries of
// [key sds][val][next]. Growth doubles the bucket array at load factor 1
// (the paper's workloads pre-populate, so the amortized rehash pattern
// matches redis' behaviour well enough without incremental rehashing).
type Dict struct {
	sp    space.Space
	alloc *dalloc.Allocator

	buckets uint64 // DDC address of the bucket array
	size    uint64 // number of buckets (power of two)
	count   uint64
}

const entrySize = 24

// NewDict creates an empty dict with 16 buckets.
func NewDict(sp space.Space, alloc *dalloc.Allocator) *Dict {
	d := &Dict{sp: sp, alloc: alloc, size: 16}
	d.buckets = alloc.Alloc(d.size * 8)
	d.zeroBuckets(d.buckets, d.size)
	return d
}

func (d *Dict) zeroBuckets(addr, n uint64) {
	zero := make([]byte, 4096)
	for off := uint64(0); off < n*8; {
		chunk := n*8 - off
		if chunk > 4096 {
			chunk = 4096
		}
		d.sp.Store(addr+off, zero[:chunk])
		off += chunk
	}
}

// hash is FNV-1a over the key (host-side key bytes; cost charged per word).
func (d *Dict) hash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h = (h ^ uint64(b)) * 1099511628211
	}
	d.sp.Compute(sim.Time(len(key)/8+1) * 2 * sim.Nanosecond)
	return h
}

// bucketAddr returns the DDC address of bucket i.
func (d *Dict) bucketAddr(i uint64) uint64 { return d.buckets + i*8 }

// Find returns the value for key.
func (d *Dict) Find(key []byte) (uint64, bool) {
	h := d.hash(key) & (d.size - 1)
	e := d.sp.LoadU64(d.bucketAddr(h))
	for e != 0 {
		ks := d.sp.LoadU64(e)
		if d.sdsEqual(ks, key) {
			return d.sp.LoadU64(e + 8), true
		}
		e = d.sp.LoadU64(e + 16)
	}
	return 0, false
}

func (d *Dict) sdsEqual(addr uint64, key []byte) bool {
	if d.sp.LoadU32(addr) != uint32(len(key)) {
		return false
	}
	buf := make([]byte, len(key))
	d.sp.Load(addr+sdsHeader, buf)
	for i := range key {
		if buf[i] != key[i] {
			return false
		}
	}
	return true
}

// Insert stores key → val. If the key existed, the old value address is
// returned with ok=true and replaced.
func (d *Dict) Insert(key []byte, val uint64) (old uint64, existed bool) {
	if d.count >= d.size {
		d.grow()
	}
	h := d.hash(key) & (d.size - 1)
	ba := d.bucketAddr(h)
	e := d.sp.LoadU64(ba)
	for e != 0 {
		ks := d.sp.LoadU64(e)
		if d.sdsEqual(ks, key) {
			old = d.sp.LoadU64(e + 8)
			d.sp.StoreU64(e+8, val)
			return old, true
		}
		e = d.sp.LoadU64(e + 16)
	}
	// New entry at bucket head.
	entry := d.alloc.Alloc(entrySize)
	ks := d.newKeySDS(key)
	d.sp.StoreU64(entry, ks)
	d.sp.StoreU64(entry+8, val)
	d.sp.StoreU64(entry+16, d.sp.LoadU64(ba))
	d.sp.StoreU64(ba, entry)
	d.count++
	return 0, false
}

func (d *Dict) newKeySDS(key []byte) uint64 {
	addr := d.alloc.Alloc(uint64(sdsHeader + len(key)))
	d.sp.StoreU32(addr, uint32(len(key)))
	d.sp.StoreU32(addr+4, uint32(d.alloc.SizeOf(addr)-sdsHeader))
	d.sp.Store(addr+sdsHeader, key)
	return addr
}

// Delete removes key, returning its value address.
func (d *Dict) Delete(key []byte) (uint64, bool) {
	h := d.hash(key) & (d.size - 1)
	prev := uint64(0)
	e := d.sp.LoadU64(d.bucketAddr(h))
	for e != 0 {
		ks := d.sp.LoadU64(e)
		if d.sdsEqual(ks, key) {
			next := d.sp.LoadU64(e + 16)
			if prev == 0 {
				d.sp.StoreU64(d.bucketAddr(h), next)
			} else {
				d.sp.StoreU64(prev+16, next)
			}
			val := d.sp.LoadU64(e + 8)
			d.alloc.Free(ks)
			d.alloc.Free(e)
			d.count--
			return val, true
		}
		prev = e
		e = d.sp.LoadU64(e + 16)
	}
	return 0, false
}

// grow doubles the bucket array and rehashes every entry.
func (d *Dict) grow() {
	newSize := d.size * 2
	newBuckets := d.alloc.Alloc(newSize * 8)
	d.zeroBuckets(newBuckets, newSize)
	for i := uint64(0); i < d.size; i++ {
		e := d.sp.LoadU64(d.bucketAddr(i))
		for e != 0 {
			next := d.sp.LoadU64(e + 16)
			ks := d.sp.LoadU64(e)
			klen := d.sp.LoadU32(ks)
			kb := make([]byte, klen)
			d.sp.Load(ks+sdsHeader, kb)
			nh := d.hash(kb) & (newSize - 1)
			na := newBuckets + nh*8
			d.sp.StoreU64(e+16, d.sp.LoadU64(na))
			d.sp.StoreU64(na, e)
			e = next
		}
	}
	d.alloc.Free(d.buckets)
	d.buckets = newBuckets
	d.size = newSize
}
