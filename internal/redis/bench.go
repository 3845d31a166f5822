package redis

import (
	"encoding/binary"
	"math/rand"

	"dilos/internal/sim"
	"dilos/internal/space"
	"dilos/internal/stats"
)

// This file is the reproduction's redis-benchmark: population and query
// drivers for the paper's GET, LRANGE and DEL workloads (§6.2–§6.3).

// MixedSizes is the Facebook-photo-server-like value-size mix the paper
// uses for the GET (mixed) workload: six equally distributed sizes.
var MixedSizes = []int{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10}

// KeyOf formats benchmark key i (fixed 16-byte keys, like
// redis-benchmark's key:__rand_int__ pattern).
func KeyOf(i int) []byte {
	k := make([]byte, 16)
	copy(k, "key:")
	binary.LittleEndian.PutUint64(k[4:], uint64(i))
	return k
}

// valueOf deterministically fills a value for key i.
func valueOf(i, size int) []byte {
	v := make([]byte, size)
	seed := uint64(i)*2654435761 + 12345
	for o := 0; o+8 <= size; o += 8 {
		binary.LittleEndian.PutUint64(v[o:], seed+uint64(o))
	}
	return v
}

// PopulateGET fills the keyspace with nKeys values sized by sizeOf(i).
func PopulateGET(srv *Server, nKeys int, sizeOf func(i int) int) {
	for i := 0; i < nKeys; i++ {
		srv.Set(KeyOf(i), valueOf(i, sizeOf(i)))
	}
}

// GETResult is one GET run's outcome.
type GETResult struct {
	Queries    int
	Elapsed    sim.Time
	Latency    *stats.Histogram
	BytesMoved int64
	BadValues  int
}

// ThroughputOps returns operations per second.
func (r GETResult) ThroughputOps() float64 {
	return float64(r.Queries) / r.Elapsed.Seconds()
}

// RunGET issues `queries` GETs over random keys, recording per-op latency
// and verifying values.
func RunGET(sp space.Space, srv *Server, nKeys, queries int, sizeOf func(i int) int, seed int64) GETResult {
	rng := rand.New(rand.NewSource(seed))
	res := GETResult{Queries: queries, Latency: stats.NewHistogram("get")}
	t0 := sp.Now()
	for q := 0; q < queries; q++ {
		i := rng.Intn(nKeys)
		opStart := sp.Now()
		v := srv.Get(KeyOf(i))
		res.Latency.Record(sp.Now() - opStart)
		res.BytesMoved += int64(len(v))
		if len(v) != sizeOf(i) || (len(v) >= 8 &&
			binary.LittleEndian.Uint64(v[:8]) != uint64(i)*2654435761+12345) {
			res.BadValues++
		}
	}
	res.Elapsed = sp.Now() - t0
	return res
}

// PopulateLRANGE creates nLists lists and pushes elements round-robin at
// random, `totalElems` elements of elemSize bytes — the paper's modified
// redis-benchmark populates 100 k lists with 20 M elements the same way.
func PopulateLRANGE(srv *Server, nLists, totalElems, elemSize int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	val := make([]byte, elemSize)
	for e := 0; e < totalElems; e++ {
		li := rng.Intn(nLists)
		binary.LittleEndian.PutUint64(val, uint64(li)<<32|uint64(e))
		srv.RPush(listKey(li), val)
	}
}

func listKey(i int) []byte {
	k := make([]byte, 16)
	copy(k, "mylist:")
	binary.LittleEndian.PutUint64(k[8:], uint64(i))
	return k
}

// LRANGEResult is one LRANGE run's outcome.
type LRANGEResult struct {
	Queries  int
	Elapsed  sim.Time
	Latency  *stats.Histogram
	Elements int64
}

// ThroughputOps returns operations per second.
func (r LRANGEResult) ThroughputOps() float64 {
	return float64(r.Queries) / r.Elapsed.Seconds()
}

// RunLRANGE issues `queries` LRANGE_100 calls (first 100 elements) against
// random lists.
func RunLRANGE(sp space.Space, srv *Server, nLists, queries int, seed int64) LRANGEResult {
	rng := rand.New(rand.NewSource(seed))
	res := LRANGEResult{Queries: queries, Latency: stats.NewHistogram("lrange")}
	t0 := sp.Now()
	for q := 0; q < queries; q++ {
		li := rng.Intn(nLists)
		opStart := sp.Now()
		out := srv.LRange(listKey(li), 0, 99)
		res.Latency.Record(sp.Now() - opStart)
		res.Elements += int64(len(out))
	}
	res.Elapsed = sp.Now() - t0
	return res
}

// RunDEL deletes a fraction of the keyspace at random — Figure 12's DEL
// phase, which fragments pages and sets up guided paging's savings.
func RunDEL(srv *Server, nKeys int, fraction float64, seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	deleted := 0
	for i := 0; i < nKeys; i++ {
		if rng.Float64() < fraction {
			if srv.Del(KeyOf(i)) {
				deleted++
			}
		}
	}
	return deleted
}

// SizeFixed returns a constant-size function.
func SizeFixed(n int) func(int) int { return func(int) int { return n } }

// SizeMixed returns the Facebook-photo mix assignment.
func SizeMixed() func(int) int {
	return func(i int) int { return MixedSizes[i%len(MixedSizes)] }
}
