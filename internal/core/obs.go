// Live observability plane wiring (internal/obs): the publisher daemon
// that evaluates SLO burn rates and renders the /metrics, /statusz, and
// /journalz pages, plus the control-plane journal emission helpers the
// rest of core calls. Everything here is off the fault path — the only
// hot-path observability cost is Monitor.Observe (one ring-bucket
// increment) at the fault-latency record site in fault.go.
package core

import (
	"strconv"

	"dilos/internal/obs"
	"dilos/internal/placement"
	"dilos/internal/sim"
)

// emitEvent appends one control-plane event to the plane's journal, if
// the system has one.
func (s *System) emitEvent(at sim.Time, typ string, attrs ...obs.Attr) {
	if s.Obs == nil || s.Obs.Journal == nil {
		return
	}
	s.Obs.Journal.Emit(at, typ, attrs...)
}

// obsDefaultEval and obsDefaultPublish pace the publisher daemon when the
// plane leaves them zero. Evaluation touches only the SLO rings (cheap);
// publishing takes a full registry snapshot — histogram percentile sorts
// included — so it runs at a coarser cadence.
const (
	obsDefaultEval    = 250 * sim.Microsecond
	obsDefaultPublish = sim.Millisecond
)

// obsLoop is the plane's publisher daemon: evaluate the SLO monitor every
// EvalEvery, and — when an HTTP sink is attached — render and publish the
// /metrics, /statusz, and /journalz pages every PublishEvery. The render
// buffers are reused across ticks, so steady-state publishing allocates
// only inside the registry snapshot.
func (s *System) obsLoop(p *sim.Proc) {
	pl := s.Obs
	evalEvery := pl.EvalEvery
	if evalEvery <= 0 {
		evalEvery = obsDefaultEval
	}
	pubEvery := pl.PublishEvery
	if pubEvery <= 0 {
		pubEvery = obsDefaultPublish
	}
	var metrics, status, journal []byte
	var nextPub sim.Time
	for {
		p.Sleep(evalEvery)
		now := p.Now()
		if pl.Monitor != nil {
			pl.Monitor.Evaluate(now)
		}
		if pl.Sink == nil || now < nextPub {
			continue
		}
		nextPub = now + pubEvery
		metrics = obs.AppendMetrics(metrics[:0], s.registry.Snapshot(), s.Tel)
		pl.Sink.PublishMetrics(metrics)
		status = s.AppendStatus(status[:0], now)
		pl.Sink.PublishStatus(status)
		if pl.Journal != nil {
			journal = pl.Journal.AppendJSONL(journal[:0])
			pl.Sink.PublishJournal(journal)
		}
		pl.Sink.SetHealth(s.healthVerdict())
	}
}

// healthVerdict decides /healthz: unhealthy while any memory node sits in
// the Failed state (fetches are failing over; capacity is degraded).
func (s *System) healthVerdict() (bool, string) {
	for i := range s.Links {
		if s.space.State(i) == placement.Failed {
			return false, "node " + strconv.Itoa(i) + " failed"
		}
	}
	return true, "ok"
}

// setNodeState drives the placement state machine and journals the
// transition as a node_state event.
func (s *System) setNodeState(node int, st placement.State) error {
	if err := s.space.SetState(node, st); err != nil {
		return err
	}
	s.emitEvent(s.Eng.Now(), "node_state",
		obs.I("node", int64(node)), obs.S("state", st.String()))
	return nil
}

// AppendStatus renders /statusz: membership states, per-shard cache
// occupancy, health-breaker counters, and the SLO table. Deterministic —
// fixed iteration orders, integer rendering — so same-seed runs publish
// byte-identical pages.
func (s *System) AppendStatus(dst []byte, now sim.Time) []byte {
	dst = append(dst, "dilos status at "...)
	dst = append(dst, now.String()...)
	dst = append(dst, '\n')
	for i := range s.Links {
		dst = append(dst, "node "...)
		dst = strconv.AppendInt(dst, int64(i), 10)
		dst = append(dst, " state="...)
		dst = append(dst, s.space.State(i).String()...)
		dst = append(dst, '\n')
	}
	shards := s.shards
	if shards <= 1 {
		shards = 1
	}
	for sh := 0; sh < shards; sh++ {
		dst = append(dst, "shard "...)
		dst = strconv.AppendInt(dst, int64(sh), 10)
		dst = append(dst, " lru_frames="...)
		dst = strconv.AppendInt(dst, int64(s.Pool.LRULenOf(sh)), 10)
		dst = append(dst, '\n')
	}
	dst = append(dst, "cache used="...)
	dst = strconv.AppendInt(dst, int64(s.Pool.Used()), 10)
	dst = append(dst, " free="...)
	dst = strconv.AppendInt(dst, int64(s.Pool.FreeCount()), 10)
	dst = append(dst, '\n')
	if s.Health != nil {
		dst = append(dst, "health probes="...)
		dst = strconv.AppendInt(dst, s.Health.Probes.N, 10)
		dst = append(dst, " probe_fails="...)
		dst = strconv.AppendInt(dst, s.Health.ProbeFails.N, 10)
		dst = append(dst, " breaker_trips="...)
		dst = strconv.AppendInt(dst, s.Health.NodeFails.N, 10)
		dst = append(dst, " recoveries="...)
		dst = strconv.AppendInt(dst, s.Health.NodeRecoveries.N, 10)
		dst = append(dst, '\n')
	}
	if s.Obs != nil && s.Obs.Monitor != nil {
		dst = s.Obs.Monitor.AppendStatus(dst, now)
	}
	for _, fn := range s.statusSections {
		dst = fn(dst, now)
	}
	return dst
}
