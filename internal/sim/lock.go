package sim

// Lock is a virtual-time mutex for procs.
//
// Plain Go mutexes are meaningless inside the simulation: the engine runs
// exactly one proc at a time, so data races cannot happen — but *virtual
// time* overlap can. A proc that calls Advance while "holding" a naive
// held-flag lock never yields, so a second proc resumed later could enter
// the critical section at an earlier virtual instant than the first proc
// left it. Lock closes that hole by remembering the virtual time the
// section was last vacated (freeAt) and fast-forwarding each new owner's
// clock to it, serializing the critical sections on the virtual timeline
// exactly like a contended spinlock serializes wall-clock time.
//
// This is how the "wide lock" baseline in the sharding experiments models
// the cost of a single coarse page-manager lock: every fault handler pays
// the full residency of the cleaner's sweep.
type Lock struct {
	held   bool
	freeAt Time
	w      Waiter
}

// Acquire blocks p until the lock is free, then takes it. The caller's
// clock is advanced to the instant the previous owner released, so
// critical sections never overlap in virtual time.
func (l *Lock) Acquire(p *Proc) {
	for l.held {
		l.w.Wait(p)
	}
	l.held = true
	if d := l.freeAt - p.Now(); d > 0 {
		p.Advance(d)
	}
}

// Release frees the lock and wakes one waiter (FIFO). Must be called by
// the current owner.
func (l *Lock) Release(p *Proc) {
	if !l.held {
		panic("sim: Release of unheld Lock")
	}
	l.held = false
	if p.Now() > l.freeAt {
		l.freeAt = p.Now()
	}
	l.w.WakeOne(p.Now())
}
