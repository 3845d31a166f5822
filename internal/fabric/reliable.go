package fabric

import (
	"dilos/internal/chaos"
	"dilos/internal/sim"
	"dilos/internal/stats"
	"dilos/internal/telemetry"
)

// RetryPolicy bounds a ReliableQP's persistence: up to Attempts issues of
// the op, sleeping an exponentially growing backoff (Base doubling up to
// Cap, with jitter) between them, but never re-issuing once Budget virtual
// time has elapsed since the first attempt.
type RetryPolicy struct {
	Attempts int
	Base     sim.Time
	Cap      sim.Time
	Budget   sim.Time
}

// DefaultRetryPolicy absorbs transient loss (a few failed attempts cost
// tens of microseconds) while giving up quickly enough that the caller's
// replica failover — not the retry loop — handles a dead node.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Attempts: 4,
		Base:     5 * sim.Microsecond,
		Cap:      80 * sim.Microsecond,
		Budget:   500 * sim.Microsecond,
	}
}

// RetryStats counts the retry loop's outcomes. One struct may be shared by
// many ReliableQPs (e.g. all fault-handler QPs) so the registry shows the
// stack-wide totals.
type RetryStats struct {
	Retries  stats.Counter // re-issues after a failed attempt
	Timeouts stats.Counter // ops abandoned because the budget expired
	GaveUp   stats.Counter // ops abandoned after exhausting attempts
}

// NewRetryStats names the counters under a prefix (e.g. "fetch" yields
// "retry.fetch.retries").
func NewRetryStats(prefix string) *RetryStats {
	return &RetryStats{
		Retries:  stats.Counter{Name: "retry." + prefix + ".retries"},
		Timeouts: stats.Counter{Name: "retry." + prefix + ".timeouts"},
		GaveUp:   stats.Counter{Name: "retry." + prefix + ".gaveup"},
	}
}

// RegisterStats folds the counters into a registry.
func (st *RetryStats) RegisterStats(r *stats.Registry) {
	r.RegisterCounter(&st.Retries)
	r.RegisterCounter(&st.Timeouts)
	r.RegisterCounter(&st.GaveUp)
}

// ReliableQP wraps a queue pair with blocking retry semantics: each call
// issues the op, waits for completion, and on failure backs off and
// re-issues under the policy. The jitter source is a seeded chaos.Rand so
// retry timing is as reproducible as the faults that provoke it.
//
// Unlike the raw QP's async API, these calls block the invoking process —
// retry is inherently sequential. Callers that overlap a reliable op with
// other work should structure the overlap around the call.
type ReliableQP struct {
	QP  *QP
	Pol RetryPolicy
	St  *RetryStats
	Rng *chaos.Rand
}

// NewReliableQP wraps qp with the default policy.
func NewReliableQP(qp *QP, st *RetryStats, rng *chaos.Rand) *ReliableQP {
	return &ReliableQP{QP: qp, Pol: DefaultRetryPolicy(), St: st, Rng: rng}
}

// Read performs a reliable READ, blocking p until success or the policy is
// exhausted.
func (r *ReliableQP) Read(p *sim.Proc, off uint64, dst []byte) error {
	return r.do(p, func(now sim.Time) *Op { return r.QP.Read(now, off, dst) })
}

// Write performs a reliable WRITE.
func (r *ReliableQP) Write(p *sim.Proc, off uint64, src []byte) error {
	return r.do(p, func(now sim.Time) *Op { return r.QP.Write(now, off, src) })
}

// Do runs an arbitrary issue function under the retry policy — for callers
// whose op shape varies per attempt (e.g. a vectored fetch rebuilt against
// a different replica's base offset) or who must publish each attempt's Op
// for other processes to observe.
func (r *ReliableQP) Do(p *sim.Proc, issue func(now sim.Time) *Op) error {
	return r.do(p, issue)
}

func (r *ReliableQP) do(p *sim.Proc, issue func(now sim.Time) *Op) error {
	pol := r.Pol
	if pol.Attempts < 1 {
		pol.Attempts = 1
	}
	deadline := p.Now() + pol.Budget
	backoff := pol.Base
	var lastErr error
	for attempt := 0; attempt < pol.Attempts; attempt++ {
		op := issue(p.Now())
		op.Wait(p)
		if op.Err == nil {
			return nil
		}
		lastErr = op.Err
		if attempt == pol.Attempts-1 {
			break
		}
		// Half fixed, half jittered: spreads synchronized retriers without
		// ever collapsing the wait to zero.
		sleep := backoff/2 + jitter(r.Rng, backoff/2)
		if pol.Budget > 0 && p.Now()+sleep >= deadline {
			if r.St != nil {
				r.St.Timeouts.Inc()
			}
			return lastErr
		}
		if r.St != nil {
			r.St.Retries.Inc()
		}
		if l := r.QP.link; l.Tel != nil {
			l.Tel.Emit(l.TelTrack, telemetry.Span{
				Kind: telemetry.KindRetry, Start: p.Now(), End: p.Now() + sleep,
				Arg: uint64(attempt + 1),
			})
		}
		p.Sleep(sleep)
		backoff *= 2
		if pol.Cap > 0 && backoff > pol.Cap {
			backoff = pol.Cap
		}
	}
	if r.St != nil {
		r.St.GaveUp.Inc()
	}
	return lastErr
}

func jitter(rng *chaos.Rand, max sim.Time) sim.Time {
	if rng == nil {
		return 0
	}
	return rng.Jitter(max)
}
