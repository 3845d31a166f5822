package core

import (
	"fmt"

	"dilos/internal/comm"
	"dilos/internal/dram"
	"dilos/internal/fabric"
	"dilos/internal/obs"
	"dilos/internal/pagetable"
	"dilos/internal/placement"
	"dilos/internal/sim"
	"dilos/internal/stats"
)

// HealthConfig tunes the memory-node health monitor: a per-node daemon that
// probes the node on a dedicated queue pair and drives the placement
// substrate's fail/recover transitions through a circuit breaker.
type HealthConfig struct {
	// Interval is the closed-state probe period.
	Interval sim.Time
	// FailAfter is the number of consecutive probe failures before the
	// breaker opens and the node is declared failed.
	FailAfter int
	// Cooldown is how long an open breaker waits before probing again
	// (half-open).
	Cooldown sim.Time
	// SuccessAfter is the number of consecutive half-open probe successes
	// before the node is recovered (re-replicated, then returned to
	// service).
	SuccessAfter int
}

// DefaultHealthConfig balances detection latency against false positives:
// with the default chaos detection latency of 15 µs per failed op, three
// consecutive failed probes 100 µs apart declare a dead node in ~300 µs —
// fast against a multi-millisecond crash window, slow enough that one
// injected flaky-op failure never trips the breaker.
func DefaultHealthConfig() HealthConfig {
	return HealthConfig{
		Interval:     100 * sim.Microsecond,
		FailAfter:    3,
		Cooldown:     500 * sim.Microsecond,
		SuccessAfter: 2,
	}
}

// HealthMonitor watches every memory node with heartbeat probes and a
// closed/open/half-open circuit breaker per node:
//
//	closed    → probe every Interval; FailAfter consecutive failures open
//	            the breaker and fail the node over (SetState→Failed),
//	            provided it is not the last serving node.
//	open      → wait Cooldown, then go half-open.
//	half-open → probe; a failure re-opens, SuccessAfter consecutive
//	            successes recover the node: SetState→Syncing (write-backs
//	            resume), re-replicate every page that lost its copy,
//	            SetState→Live (reads resume).
//
// A node the migration engine drains out of the pool (SetState→Removed)
// retires its watcher; nodes attached mid-run (AddMemNode) get one via
// Watch.
type HealthMonitor struct {
	sys *System
	cfg HealthConfig

	// watched[i] guards against double-spawning node i's daemon when a
	// node attached before Start is watched again by Start.
	watched []bool

	Probes         stats.Counter // heartbeat probes issued
	ProbeFails     stats.Counter // probes that completed with an error
	NodeFails      stats.Counter // breaker trips (SetState(Failed) transitions)
	NodeRecoveries stats.Counter // completed recoveries (SetState(Live) after resync)

	// LastFailAt and LastRecoverAt record, per node, the virtual time of
	// the most recent breaker trip and completed recovery — the ext4
	// experiment derives detection and recovery latency from them.
	LastFailAt    []sim.Time
	LastRecoverAt []sim.Time
}

// NewHealthMonitor builds a monitor over the system's memory nodes, tuned
// by DefaultHealthConfig.
func NewHealthMonitor(s *System) *HealthMonitor {
	return &HealthMonitor{
		sys:            s,
		cfg:            DefaultHealthConfig(),
		Probes:         stats.Counter{Name: "health.probes"},
		ProbeFails:     stats.Counter{Name: "health.probe_fails"},
		NodeFails:      stats.Counter{Name: "health.node_fails"},
		NodeRecoveries: stats.Counter{Name: "health.node_recoveries"},
		LastFailAt:     make([]sim.Time, len(s.Links)),
		LastRecoverAt:  make([]sim.Time, len(s.Links)),
	}
}

// RegisterStats folds the monitor's counters into a registry.
func (h *HealthMonitor) RegisterStats(r *stats.Registry) {
	r.RegisterCounter(&h.Probes)
	r.RegisterCounter(&h.ProbeFails)
	r.RegisterCounter(&h.NodeFails)
	r.RegisterCounter(&h.NodeRecoveries)
}

// Config returns the monitor's configuration.
func (h *HealthMonitor) Config() HealthConfig { return h.cfg }

// Start launches one watch daemon per memory node.
func (h *HealthMonitor) Start() {
	for i := range h.sys.Links {
		h.Watch(i)
	}
}

// Watch launches the watch daemon for one node — the join path for nodes
// attached after construction (AddMemNode/AttachBacking). Idempotent. A
// new process's clock starts at 0, so a watcher spawned mid-run first
// waits until the join time: it must not probe the joiner in the past.
func (h *HealthMonitor) Watch(node int) {
	for len(h.watched) <= node {
		h.watched = append(h.watched, false)
	}
	for len(h.LastFailAt) <= node {
		h.LastFailAt = append(h.LastFailAt, 0)
		h.LastRecoverAt = append(h.LastRecoverAt, 0)
	}
	if h.watched[node] {
		return
	}
	h.watched[node] = true
	joinAt := h.sys.Eng.Now()
	h.sys.Eng.GoDaemon(fmt.Sprintf("dilos.health%d", node), func(p *sim.Proc) {
		if joinAt > 0 {
			p.WaitUntil(joinAt)
		}
		h.watch(p, node)
	})
}

// probe issues one 64-byte heartbeat read against the node's health queue
// pair and reports whether it succeeded. The probe is a plain QP op (no
// retry wrapper): the breaker's consecutive-failure threshold is the retry
// policy here.
func (h *HealthMonitor) probe(p *sim.Proc, node int) bool {
	var beat [64]byte
	h.Probes.Inc()
	op := h.sys.Hubs[node].QP(0, comm.ModHealth).Read(p.Now(), 0, beat[:])
	op.Wait(p)
	if op.Err != nil {
		h.ProbeFails.Inc()
		return false
	}
	return true
}

func (h *HealthMonitor) watch(p *sim.Proc, node int) {
	s := h.sys
	// Stagger the probes so N monitors never hit the fabric in lockstep
	// (deterministically — no PRNG draw, so monitors do not perturb the
	// chaos sequence relative to a monitor-free run... they do consume
	// injector decisions per probe, which is fine: the injector is only
	// active when chaos is configured, and then the monitor always runs).
	p.Sleep(h.cfg.Interval * sim.Time(node+1) / sim.Time(len(s.Links)+1))
	fails := 0
	for {
		// A drained node left the pool; its watcher retires with it.
		if s.space.State(node) == placement.Removed {
			return
		}
		// Closed: probe at the configured interval.
		if h.probe(p, node) {
			fails = 0
			p.Sleep(h.cfg.Interval)
			continue
		}
		fails++
		if fails < h.cfg.FailAfter {
			p.Sleep(h.cfg.Interval)
			continue
		}
		// Breaker trips. Fail the node over — a draining node can crash
		// too — unless it is the last serving node left, where all we can
		// do is keep probing and wait for it to return.
		if st := s.space.State(node); st == placement.Live || st == placement.Draining {
			if err := s.setNodeState(node, placement.Failed); err == nil {
				h.NodeFails.Inc()
				h.LastFailAt[node] = p.Now()
				s.emitEvent(p.Now(), "breaker_trip",
					obs.I("node", int64(node)), obs.I("consecutive_fails", int64(fails)))
			}
		}
		// Open → half-open → (recover | re-open).
		okRun := 0
		for okRun < h.cfg.SuccessAfter {
			if s.space.State(node) == placement.Removed {
				return // evacuated off its replicas while down
			}
			p.Sleep(h.cfg.Cooldown)
			if h.probe(p, node) {
				okRun++
			} else {
				okRun = 0
			}
		}
		if s.space.State(node) == placement.Failed {
			// SetState→Syncing: write-backs reach the node again while
			// re-replication restores the copies it lost; SetState→Live
			// resumes reads. If the migration engine wants this node
			// drained, it re-asserts Draining right after.
			if err := s.setNodeState(node, placement.Syncing); err == nil {
				s.reReplicate(p, node)
				if err := s.setNodeState(node, placement.Live); err != nil {
					panic(fmt.Sprintf("core: health recovery of node %d: %v", node, err))
				}
				h.NodeRecoveries.Inc()
				h.LastRecoverAt[node] = p.Now()
				s.emitEvent(p.Now(), "breaker_recover",
					obs.I("node", int64(node)),
					obs.I("downtime_ns", int64(p.Now()-h.LastFailAt[node])))
			}
		}
		fails = 0
		p.Sleep(h.cfg.Interval)
	}
}

// reReplicate restores the recovering node's copy of every page that keeps
// a replica slot there, reading each page's current content from the local
// frame (if resident) or the first live replica, and writing it to the
// node's slot over the health queue pair. The node must be in the syncing
// state: write-backs already reach it (so pages cleaned mid-walk stay
// fresh), but no fetch reads from it until it flips back to Live.
func (s *System) reReplicate(p *sim.Proc, node int) {
	var buf [PageSize]byte
	dst := fabric.NewReliableQP(s.Hubs[node].QP(0, comm.ModHealth), s.FetchRetries, &s.retryRng)
	for _, reg := range s.space.Regions() {
		for i := uint64(0); i < reg.Pages; i++ {
			vpn := reg.BaseVPN + pagetable.VPN(i)
			slots, ok := s.space.AllSlots(vpn)
			if !ok {
				continue
			}
			dstOff, has := uint64(0), false
			for _, sl := range slots {
				if sl.Node == node {
					dstOff, has = sl.Off, true
					break
				}
			}
			if !has {
				continue // page keeps no replica on this node
			}
			if !s.pageContent(p, vpn, buf[:]) {
				continue // every live replica unreachable right now; skip
			}
			// pageContent may have yielded (remote read); if the page became
			// resident dirty meanwhile, the frame is fresher than what we
			// read. Re-copy without yielding before issuing the write — the
			// fabric moves data at issue time, so the write carries exactly
			// these bytes.
			if pte := s.Table.Lookup(vpn); pte.Tag() == pagetable.TagLocal {
				copy(buf[:], s.Pool.Bytes(dram.FrameID(pte.Frame())))
			}
			if err := dst.Write(p, dstOff, buf[:]); err != nil {
				continue // node flapped again; its watcher will retry recovery
			}
			s.ReReplicated.Inc()
		}
	}
}

// pageContent copies the page's current bytes into buf: from the resident
// frame when Local, otherwise from the first live replica over the health
// queue pair. Returns false if the content is unreachable (no live replica
// served).
func (s *System) pageContent(p *sim.Proc, vpn pagetable.VPN, buf []byte) bool {
	if pte := s.Table.Lookup(vpn); pte.Tag() == pagetable.TagLocal {
		copy(buf, s.Pool.Bytes(dram.FrameID(pte.Frame())))
		return true
	}
	sl, ok := s.space.First(vpn)
	if !ok {
		return false
	}
	src := fabric.NewReliableQP(s.Hubs[sl.Node].QP(0, comm.ModHealth), s.FetchRetries, &s.retryRng)
	return src.Read(p, sl.Off, buf) == nil
}
