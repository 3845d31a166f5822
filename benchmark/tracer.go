package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
)

// profileHz is the CPU profiling rate of the traced repetitions. Linux
// delivers CPU-time timer signals on the scheduler tick, so asking for more
// than the kernel's 250 Hz buys nothing; the runtime's default of 100 Hz
// would leave a one-second repetition with a hundred samples. The traced
// phase runs tracedReps repetitions to collect enough of them.
const profileHz = 250

// tracedReps is how many repetitions the traced phase runs under the
// profiler and the span recorder.
const tracedReps = 3

// tracer is what the traced repetition switches on: the span recorder and
// a CPU profile of the repetition's timed window. A nil tracer is tracing
// off — every method is a no-op on nil, so workloads call it
// unconditionally.
type tracer struct {
	spans   *spanRec
	root    int // id of the current repetition's root span
	buf     bytes.Buffer
	samples []stackSample
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	return t.spans.begin(name, t.root, 0)
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans.end(id)
	}
}

// profileStart begins CPU profiling. SetCPUProfileRate before
// StartCPUProfile is the documented way to profile at another rate than
// 100 Hz; the runtime notes on stderr that the later, default-rate request
// was ignored.
func (t *tracer) profileStart() error {
	if t == nil {
		return nil
	}
	t.buf.Reset()
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&t.buf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	return nil
}

// profileStop ends profiling and decodes the samples it collected.
func (t *tracer) profileStop() error {
	if t == nil {
		return nil
	}
	pprof.StopCPUProfile()
	return t.addProfile(t.buf.Bytes())
}

// addProfile merges a finished pprof CPU profile into the tracer's samples
// (paper_suite's profiles are written by its child processes).
func (t *tracer) addProfile(raw []byte) error {
	s, err := parseProfile(raw)
	if err != nil {
		return err
	}
	t.samples = append(t.samples, s...)
	return nil
}
