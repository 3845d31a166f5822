// Package sim implements a deterministic, process-oriented discrete-event
// simulation engine. Every active component of the reproduction — CPU cores,
// the DiLOS cleaner and reclaimer daemons, prefetch engines, AIFM background
// threads — runs as a Proc with its own virtual clock. The engine resumes
// exactly one Proc at a time, always the one with the smallest wake-up time
// (ties broken by creation order), so a whole run is a pure function of its
// inputs: no wall-clock time, no host scheduling, no data races.
//
// A Proc advances its local clock freely for pure computation (Advance) and
// yields to the scheduler only at interaction points: Sleep, WaitUntil, or
// blocking on a Waiter. Shared state mutated between yields is therefore
// observed atomically by other Procs, which is the standard process-style
// DES contract.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"runtime"
)

// Time is virtual time in nanoseconds.
type Time int64

// Convenient virtual-time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	}
	return fmt.Sprintf("%dns", int64(t))
}

// Seconds returns t in seconds as a float.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns t in microseconds as a float.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Engine owns the virtual clock and the run queue of Procs.
type Engine struct {
	queue   procHeap
	procs   []*Proc       // every spawned proc (for shutdown)
	parked  chan struct{} // signalled by a Proc when it yields or finishes
	live    int           // non-daemon procs not yet finished
	nextID  int
	running bool
	now     Time // time of the most recently resumed proc (monotone)
}

// New creates an empty engine.
func New() *Engine {
	return &Engine{parked: make(chan struct{})}
}

// Now reports the virtual time of the most recently scheduled Proc. It is
// only meaningful while Run is in progress or after it returns.
func (e *Engine) Now() Time { return e.now }

// Proc is a simulated thread of control with a private virtual clock.
type Proc struct {
	eng    *Engine
	id     int
	name   string
	daemon bool

	now    Time
	wakeAt Time // valid while queued
	index  int  // heap index, -1 when not queued

	resume   chan struct{}
	started  bool
	finished bool
	aborted  bool
	fn       func(*Proc)
}

// Go registers a new process. Its clock starts at time 0, also when the
// engine is already running: a process spawned mid-run that must not act
// in its spawner's past starts with WaitUntil.
func (e *Engine) Go(name string, fn func(*Proc)) *Proc {
	return e.spawn(name, fn, false)
}

// GoDaemon registers a background process. Daemons do not keep the engine
// alive: Run returns once every non-daemon process has finished, even if
// daemons are still sleeping.
func (e *Engine) GoDaemon(name string, fn func(*Proc)) *Proc {
	return e.spawn(name, fn, true)
}

func (e *Engine) spawn(name string, fn func(*Proc), daemon bool) *Proc {
	p := &Proc{
		eng:    e,
		id:     e.nextID,
		name:   name,
		daemon: daemon,
		resume: make(chan struct{}),
		fn:     fn,
		index:  -1,
	}
	e.nextID++
	e.procs = append(e.procs, p)
	if !daemon {
		e.live++
	}
	heap.Push(&e.queue, p)
	return p
}

// Run executes the simulation until every non-daemon Proc has finished.
// It panics on deadlock (live procs remain but nothing is runnable), which
// in this codebase always indicates a bug in a Waiter protocol.
func (e *Engine) Run() {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for e.live > 0 {
		if e.queue.Len() == 0 {
			panic("sim: deadlock — live procs exist but none runnable")
		}
		p := heap.Pop(&e.queue).(*Proc)
		p.index = -1
		if p.wakeAt > e.now {
			e.now = p.wakeAt
		}
		if p.now < p.wakeAt {
			p.now = p.wakeAt
		}
		e.resumeProc(p)
	}
	// Tear down whatever is still parked (daemons sleeping or waiting):
	// their goroutines would otherwise outlive Run and pin the engine —
	// and everything it references — for the life of the process.
	for _, p := range e.procs {
		if p.started && !p.finished {
			p.aborted = true
			e.resumeProc(p)
		}
	}
}

func (e *Engine) resumeProc(p *Proc) {
	if !p.started {
		p.started = true
		go func() {
			defer func() {
				p.finished = true
				if !p.daemon {
					e.live--
				}
				e.parked <- struct{}{}
			}()
			<-p.resume
			if p.aborted {
				return
			}
			p.fn(p)
		}()
	}
	p.resume <- struct{}{}
	<-e.parked
}

// yield parks the calling Proc until the scheduler resumes it. The caller
// must already have arranged to be woken (queued in the heap or on a
// Waiter). A proc resumed only to be shut down exits here; the goroutine
// wrapper's deferred hand-off keeps the scheduler in sync.
func (p *Proc) yield() {
	p.eng.parked <- struct{}{}
	<-p.resume
	if p.aborted {
		runtime.Goexit()
	}
}

// Name returns the process name (for diagnostics).
func (p *Proc) Name() string { return p.name }

// Now returns the process-local virtual time.
func (p *Proc) Now() Time { return p.now }

// Advance models local computation: the clock moves, no rescheduling
// happens. This is the fast path used for per-access CPU cost accounting.
func (p *Proc) Advance(d Time) {
	if d < 0 {
		panic("sim: negative Advance")
	}
	p.now += d
}

// Sleep advances the clock by d and yields so other processes with earlier
// wake-up times can run.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative Sleep")
	}
	p.WaitUntil(p.now + d)
}

// WaitUntil blocks the process until virtual time t (no-op if t is in the
// process's past — but it still yields, keeping scheduling fair).
func (p *Proc) WaitUntil(t Time) {
	if t > p.now {
		p.now = t
	}
	p.wakeAt = p.now
	heap.Push(&p.eng.queue, p)
	p.yield()
}

// procHeap orders by wakeAt, ties by id, so scheduling is deterministic.
type procHeap []*Proc

func (h procHeap) Len() int { return len(h) }
func (h procHeap) Less(i, j int) bool {
	if h[i].wakeAt != h[j].wakeAt {
		return h[i].wakeAt < h[j].wakeAt
	}
	return h[i].id < h[j].id
}
func (h procHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *procHeap) Push(x any) {
	p := x.(*Proc)
	p.index = len(*h)
	*h = append(*h, p)
}
func (h *procHeap) Pop() any {
	old := *h
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return p
}
