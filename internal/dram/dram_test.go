package dram

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllocFreeConservation(t *testing.T) {
	p := NewPool(8)
	if p.FreeCount() != 8 || p.Used() != 0 {
		t.Fatalf("free=%d used=%d", p.FreeCount(), p.Used())
	}
	var ids []FrameID
	for {
		id, ok := p.Alloc()
		if !ok {
			break
		}
		ids = append(ids, id)
	}
	if len(ids) != 8 || p.FreeCount() != 0 || p.Used() != 8 {
		t.Fatalf("alloc'd %d, free=%d", len(ids), p.FreeCount())
	}
	seen := map[FrameID]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate frame %d", id)
		}
		seen[id] = true
	}
	for _, id := range ids {
		p.Free(id)
	}
	if p.FreeCount() != 8 {
		t.Fatal("frames lost")
	}
}

func TestDoubleFreePanics(t *testing.T) {
	p := NewPool(2)
	id, _ := p.Alloc()
	p.Free(id)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Free(id)
}

func TestFreeWhileOnLRUPanics(t *testing.T) {
	p := NewPool(2)
	id, _ := p.Alloc()
	p.LRUPushBack(id)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Free(id)
}

func TestBytesAreDistinctAndPageSized(t *testing.T) {
	p := NewPool(3)
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	ba, bb := p.Bytes(a), p.Bytes(b)
	if len(ba) != 4096 || cap(ba) != 4096 {
		t.Fatalf("frame size %d cap %d", len(ba), cap(ba))
	}
	ba[0] = 0xaa
	if bb[0] == 0xaa {
		t.Fatal("frames share memory")
	}
}

func TestLRUOrder(t *testing.T) {
	p := NewPool(4)
	var ids []FrameID
	for i := 0; i < 4; i++ {
		id, _ := p.Alloc()
		p.LRUPushBack(id)
		ids = append(ids, id)
	}
	if p.LRUFront() != ids[0] {
		t.Fatal("front is not the oldest")
	}
	p.LRURotate(ids[0]) // second chance
	if p.LRUFront() != ids[1] {
		t.Fatal("rotate did not advance the clock hand")
	}
	var order []FrameID
	p.WalkShard(0, func(id FrameID, f *Frame) bool {
		order = append(order, id)
		return true
	})
	want := []FrameID{ids[1], ids[2], ids[3], ids[0]}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestLRURemoveMiddle(t *testing.T) {
	p := NewPool(3)
	var ids []FrameID
	for i := 0; i < 3; i++ {
		id, _ := p.Alloc()
		p.LRUPushBack(id)
		ids = append(ids, id)
	}
	p.LRURemove(ids[1])
	if p.LRULen() != 2 {
		t.Fatalf("len = %d", p.LRULen())
	}
	var order []FrameID
	p.WalkShard(0, func(id FrameID, f *Frame) bool { order = append(order, id); return true })
	if len(order) != 2 || order[0] != ids[0] || order[1] != ids[2] {
		t.Fatalf("order = %v", order)
	}
}

func TestWalkEarlyStop(t *testing.T) {
	p := NewPool(5)
	for i := 0; i < 5; i++ {
		id, _ := p.Alloc()
		p.LRUPushBack(id)
	}
	n := 0
	p.WalkShard(0, func(id FrameID, f *Frame) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("visited %d", n)
	}
}

// Property (DESIGN.md §6): under any random op sequence, free + used ==
// capacity, no frame is both free and on the LRU, and the LRU list length
// matches the count of inLRU frames.
func TestQuickPoolInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const cap = 16
		p := NewPool(cap)
		allocated := map[FrameID]bool{} // id -> onLRU
		for i := 0; i < 400; i++ {
			switch rng.Intn(4) {
			case 0:
				if id, ok := p.Alloc(); ok {
					allocated[id] = false
				}
			case 1: // push a random allocated, non-LRU frame
				for id, on := range allocated {
					if !on {
						p.LRUPushBack(id)
						allocated[id] = true
						break
					}
				}
			case 2: // remove a random LRU frame
				for id, on := range allocated {
					if on {
						p.LRURemove(id)
						allocated[id] = false
						break
					}
				}
			case 3: // free a random non-LRU frame
				for id, on := range allocated {
					if !on {
						p.Free(id)
						delete(allocated, id)
						break
					}
				}
			}
			if p.FreeCount()+p.Used() != cap {
				return false
			}
			onLRU := 0
			for _, on := range allocated {
				if on {
					onLRU++
				}
			}
			if onLRU != p.LRULen() {
				return false
			}
		}
		// Walk must visit exactly LRULen frames.
		n := 0
		p.WalkShard(0, func(FrameID, *Frame) bool { n++; return true })
		return n == p.LRULen()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
