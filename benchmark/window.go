package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// window brackets one timed stretch of a repetition and takes, at both
// ends, every process-wide counter the count metrics are deltas of. All of
// it is read from outside the program: the wall clock, getrusage, the Go
// runtime's MemStats and the loopback interface's packet counters.
type window struct {
	t0  time.Time
	ru0 syscall.Rusage
	ms0 runtime.MemStats
	lo0 loCounters
	lo  bool
}

// delta is what changed across a window.
type delta struct {
	WallNs    int64
	CPUNs     int64 // user+sys of the whole process
	Mallocs   uint64
	HeapBytes uint64
	GCCycles  uint32
	Nvcsw     int64
	Nivcsw    int64
	LoPackets int64
	LoBytes   int64
}

// openWindow starts a window. withLo also samples /proc/net/dev (the wire
// workloads); it is skipped elsewhere because reading it costs a syscall
// storm the sim workloads have no use for.
func openWindow(withLo bool) *window {
	w := &window{lo: withLo}
	if withLo {
		w.lo0 = readLo()
	}
	runtime.ReadMemStats(&w.ms0)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &w.ru0) // cannot fail for RUSAGE_SELF
	w.t0 = time.Now()
	return w
}

func (w *window) close() delta {
	wall := time.Since(w.t0)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	d := delta{
		WallNs:    wall.Nanoseconds(),
		CPUNs:     cpuNs(&ru) - cpuNs(&w.ru0),
		Mallocs:   ms.Mallocs - w.ms0.Mallocs,
		HeapBytes: ms.TotalAlloc - w.ms0.TotalAlloc,
		GCCycles:  ms.NumGC - w.ms0.NumGC,
		Nvcsw:     ru.Nvcsw - w.ru0.Nvcsw,
		Nivcsw:    ru.Nivcsw - w.ru0.Nivcsw,
	}
	if w.lo {
		lo := readLo()
		d.LoPackets = lo.packets - w.lo0.packets
		d.LoBytes = lo.bytes - w.lo0.bytes
	}
	return d
}

func cpuNs(ru *syscall.Rusage) int64 {
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMiB is the process's resident-set high-water mark (ru_maxrss is in
// KiB on Linux — the same number /proc/self/status calls VmHWM).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// loCounters are the loopback interface's received totals. Everything sent
// over lo is also received on it, so rx alone counts each packet once.
type loCounters struct{ bytes, packets int64 }

// readLo parses the lo row of /proc/net/dev; zeros when the file or the
// row is missing (the lo_* metrics then read 0 rather than failing a run).
func readLo() loCounters {
	b, err := os.ReadFile("/proc/net/dev")
	if err != nil {
		return loCounters{}
	}
	for _, line := range strings.Split(string(b), "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "lo" {
			continue
		}
		f := strings.Fields(rest)
		if len(f) < 2 {
			break
		}
		by, _ := strconv.ParseInt(f[0], 10, 64)
		pk, _ := strconv.ParseInt(f[1], 10, 64)
		return loCounters{bytes: by, packets: pk}
	}
	return loCounters{}
}
