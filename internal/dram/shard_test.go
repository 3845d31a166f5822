package dram

import (
	"math/rand"
	"testing"

	"dilos/internal/pagetable"
)

// collectShards walks every shard list and returns, per shard, the frame
// ids from cold to hot.
func collectShards(p *Pool) [][]FrameID {
	out := make([][]FrameID, len(p.lists))
	for s := range out {
		p.WalkShard(s, func(id FrameID, f *Frame) bool {
			out[s] = append(out[s], id)
			return true
		})
	}
	return out
}

// checkDisjoint asserts no frame sits on two shard lists, every listed
// frame's Shard() matches the list it is on, and the per-shard counters
// agree with the links.
func checkDisjoint(t *testing.T, p *Pool) {
	t.Helper()
	seen := map[FrameID]int{}
	total := 0
	for s, ids := range collectShards(p) {
		if len(ids) != p.LRULenOf(s) {
			t.Fatalf("shard %d: walk found %d frames, counter says %d", s, len(ids), p.LRULenOf(s))
		}
		total += len(ids)
		for _, id := range ids {
			if prev, dup := seen[id]; dup {
				t.Fatalf("frame %d on shard %d and shard %d", id, prev, s)
			}
			seen[id] = s
			if p.Meta(id).Shard() != s {
				t.Fatalf("frame %d on shard %d but Shard() = %d", id, s, p.Meta(id).Shard())
			}
		}
	}
	if total != p.LRULen() {
		t.Fatalf("LRULen = %d, shard walks found %d", p.LRULen(), total)
	}
}

// TestShardDisjointness churns frames across per-core shard lists —
// pushes, second-chance rotations, removals, and re-homes to a different
// shard — and checks after every phase that each frame is on at most one
// list. A frame on two clocks would be reclaimed twice.
func TestShardDisjointness(t *testing.T) {
	const shards, nframes = 4, 64
	p := NewPool(nframes)
	p.SetShards(shards)
	if len(p.lists) != shards {
		t.Fatalf("SetShards(%d) built %d lists", shards, len(p.lists))
	}
	var ids []FrameID
	for i := 0; i < nframes; i++ {
		id, ok := p.Alloc()
		if !ok {
			t.Fatal("pool exhausted early")
		}
		p.Meta(id).VPN = pagetable.VPN(i)
		p.LRUPushBackOn(i%shards, id)
		ids = append(ids, id)
	}
	checkDisjoint(t, p)

	rng := rand.New(rand.NewSource(42))
	// Rotations stay on the home shard.
	for i := 0; i < 200; i++ {
		p.LRURotate(ids[rng.Intn(len(ids))])
	}
	checkDisjoint(t, p)

	// Re-home a random third of the frames: remove unlinks from the old
	// shard, push homes to the new one.
	for i := 0; i < nframes/3; i++ {
		id := ids[rng.Intn(len(ids))]
		if !p.Meta(id).inLRU {
			continue
		}
		p.LRURemove(id)
		p.LRUPushBackOn(rng.Intn(shards), id)
	}
	checkDisjoint(t, p)

	// Evict half: remove + free, then re-alloc and land on fresh shards.
	for i := 0; i < nframes/2; i++ {
		id := ids[i]
		p.LRURemove(id)
		p.Free(id)
	}
	checkDisjoint(t, p)
	for i := 0; i < nframes/2; i++ {
		id, ok := p.Alloc()
		if !ok {
			t.Fatal("re-alloc failed")
		}
		p.LRUPushBackOn(rng.Intn(shards), id)
	}
	checkDisjoint(t, p)
}

// TestShardDoublePushPanics pins the invariant directly: homing a frame
// onto a second list while it is still linked must panic, whichever shard
// the second push targets.
func TestShardDoublePushPanics(t *testing.T) {
	p := NewPool(4)
	p.SetShards(2)
	id, _ := p.Alloc()
	p.LRUPushBackOn(0, id)
	defer func() {
		if recover() == nil {
			t.Fatal("double push did not panic")
		}
	}()
	p.LRUPushBackOn(1, id)
}

// TestSetShardsAfterUseRejected: resharding with frames still on a list
// would orphan links, so it must panic.
func TestSetShardsAfterUseRejected(t *testing.T) {
	p := NewPool(4)
	id, _ := p.Alloc()
	p.LRUPushBack(id)
	defer func() {
		if recover() == nil {
			t.Fatal("SetShards with a populated LRU did not panic")
		}
	}()
	p.SetShards(4)
}
