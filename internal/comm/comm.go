// Package comm is DiLOS' communication module (§4.5): it hands every paging
// module on every core its own RDMA queue pair, so a page fault's fetch is
// never queued behind lower-priority prefetch, cleaner, or guide traffic
// (no head-of-line blocking), and modules never contend on a lock for queue
// access (shared-nothing). Guides additionally get dedicated per-core
// subpage queues for their own subpaging mechanisms.
package comm

import (
	"fmt"

	"dilos/internal/fabric"
)

// Module identifies a paging module for queue assignment.
type Module int

// The paging modules of a DiLOS computing node.
const (
	ModFault    Module = iota // page fault handler fetches
	ModPrefetch               // prefetcher page fetches
	ModCleaner                // background write-back
	ModReclaim                // reclaimer traffic (sync write-back under pressure)
	ModGuide                  // guide subpage queues (§4.5, separate from paging)
	ModHealth                 // health-monitor probes and re-replication traffic
	ModMigrate                // migration-engine page copies (drain/rebalance)
	NumModules
)

func (m Module) String() string {
	switch m {
	case ModFault:
		return "fault"
	case ModPrefetch:
		return "prefetch"
	case ModCleaner:
		return "cleaner"
	case ModReclaim:
		return "reclaim"
	case ModGuide:
		return "guide"
	case ModHealth:
		return "health"
	case ModMigrate:
		return "migrate"
	}
	return fmt.Sprintf("module(%d)", int(m))
}

// Hub owns the per-core × per-module queue pairs.
type Hub struct {
	qps [][]*fabric.QP // [core][module]
}

// NewHub creates queue pairs for `cores` cores against the link.
func NewHub(link *fabric.Link, cores int, protKey uint32) *Hub {
	h := &Hub{qps: make([][]*fabric.QP, cores)}
	for c := 0; c < cores; c++ {
		h.qps[c] = make([]*fabric.QP, NumModules)
		for m := Module(0); m < NumModules; m++ {
			h.qps[c][m] = link.MustQP(fmt.Sprintf("core%d.%s", c, m), protKey)
		}
	}
	return h
}

// NewSharedHub creates a hub where every module on a core shares one queue
// pair (the design §4.5 argues against: fault fetches get FIFO-ordered
// behind prefetcher and cleaner traffic). It exists for the ablation
// benchmarks.
func NewSharedHub(link *fabric.Link, cores int, protKey uint32) *Hub {
	h := &Hub{qps: make([][]*fabric.QP, cores)}
	for c := 0; c < cores; c++ {
		qp := link.MustQP(fmt.Sprintf("core%d.shared", c), protKey)
		h.qps[c] = make([]*fabric.QP, NumModules)
		for m := Module(0); m < NumModules; m++ {
			h.qps[c][m] = qp
		}
	}
	return h
}

// Cores returns the number of cores the hub serves.
func (h *Hub) Cores() int { return len(h.qps) }

// QP returns the queue pair for (core, module). Any module gains
// blocking-free access regardless of the core it runs on.
func (h *Hub) QP(core int, m Module) *fabric.QP {
	return h.qps[core][m]
}
