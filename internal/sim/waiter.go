package sim

import "container/heap"

// Waiter is a broadcast condition variable in virtual time. Processes park
// on it with Wait; another process releases all of them with Wake, which
// moves each sleeper's clock forward to the waker's time (a process can
// never observe an event before it happened).
//
// The zero Waiter is ready to use.
type Waiter struct {
	waiting []*Proc
}

// Wait parks p until another process calls Wake (or WakeOne reaches it).
func (w *Waiter) Wait(p *Proc) {
	w.waiting = append(w.waiting, p)
	p.yield()
}

// Len reports how many processes are parked on w.
func (w *Waiter) Len() int { return len(w.waiting) }

// Wake releases every parked process at time `at` (typically the waker's
// Now). Sleepers whose clocks are already past `at` keep their own time.
func (w *Waiter) Wake(at Time) {
	for _, q := range w.waiting {
		release(q, at)
	}
	w.waiting = w.waiting[:0]
}

// WakeOne releases the longest-parked process, if any, and reports whether
// one was released.
func (w *Waiter) WakeOne(at Time) bool {
	if len(w.waiting) == 0 {
		return false
	}
	q := w.waiting[0]
	copy(w.waiting, w.waiting[1:])
	w.waiting = w.waiting[:len(w.waiting)-1]
	release(q, at)
	return true
}

func release(q *Proc, at Time) {
	if at > q.now {
		q.now = at
	}
	q.wakeAt = q.now
	heap.Push(&q.eng.queue, q)
}
