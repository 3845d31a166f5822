package main

import (
	"path"
	"strings"
)

// Layer attribution of CPU profile samples.
//
// Layers are this repository's packages. A sample belongs to the innermost
// frame, walking from the leaf outwards, that is either in a named layer or
// a Go runtime function of one of four kinds — scheduling (channel
// handoffs, parking, futex), garbage collection and allocation, memory
// copies, system calls and the network poller. Frames in between (other
// standard library code, runtime helpers, and repository packages that are
// support code rather than layers: stats, telemetry, placement, ...) are
// charged to whoever called them. A stack with no such frame is
// unattributed. The shares therefore partition the profile: they sum to 100.

const (
	layerWorkload  = "workload"
	layerBaselines = "baselines"
	layerClient    = "transport.client"
	layerServer    = "transport.server"
	layerSched     = "runtime.sched"
	layerGC        = "runtime.gc"
	layerMemmove   = "runtime.memmove"
	layerSyscall   = "runtime.syscall"
	layerNone      = "unattributed"
)

// shareMetric maps each layer to the metric that reports its share.
var shareMetric = map[string]string{
	"sim":          "sim.host_share_pct",
	"pagetable":    "pagetable.host_share_pct",
	"mmu":          "mmu.host_share_pct",
	"dram":         "dram.host_share_pct",
	"pagemgr":      "pagemgr.host_share_pct",
	"prefetch":     "prefetch.host_share_pct",
	"fabric":       "fabric.host_share_pct",
	"comm":         "comm.host_share_pct",
	"memnode":      "memnode.host_share_pct",
	"core":         "core.host_share_pct",
	layerWorkload:  "workload.host_share_pct",
	layerBaselines: "baselines.host_share_pct",
	layerClient:    "transport.client_share_pct",
	layerServer:    "transport.server_share_pct",
	layerSched:     "runtime.sched_share_pct",
	layerGC:        "runtime.gc_share_pct",
	layerMemmove:   "runtime.memmove_share_pct",
	layerSyscall:   "runtime.syscall_share_pct",
	layerNone:      "bench.unattributed_pct",
}

const repoPkg = "dilos/internal/"

// pkgLayer names the layer of each repository package that is one. The
// paging layers map to themselves; application code, the experiment
// harness and the benchmark's own load generation and checking are the
// workload; the comparison systems are baselines.
var pkgLayer = map[string]string{
	"sim": "sim", "pagetable": "pagetable", "mmu": "mmu", "dram": "dram",
	"pagemgr": "pagemgr", "prefetch": "prefetch", "fabric": "fabric",
	"comm": "comm", "memnode": "memnode", "core": "core",
	"workloads": layerWorkload, "redis": layerWorkload, "kvcache": layerWorkload,
	"dalloc": layerWorkload, "guide": layerWorkload, "dataframe": layerWorkload,
	"gapbs": layerWorkload, "snappy": layerWorkload, "space": layerWorkload,
	"experiments": layerWorkload,
	"fastswap":    layerBaselines, "aifm": layerBaselines,
}

// splitFunc splits a profile function name into its package path and the
// rest: "dilos/internal/sim.(*Proc).yield" → "dilos/internal/sim",
// "(*Proc).yield".
func splitFunc(fn string) (pkg, name string) {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn, ""
	}
	return fn[:slash+1+dot], fn[slash+1+dot+1:]
}

// Runtime function prefixes per kind. Matching is on the name without its
// "runtime." qualifier; exact names are listed where a prefix would catch
// unrelated functions (read vs ready).
var (
	memmoveExact = []string{"memmove", "typedmemmove", "memclrNoHeapPointers", "memclrNoHeapPointersChunked", "memclrHasPointers"}
	syscallExact = []string{"read", "write", "write1", "closefd", "open"}
	syscallPfx   = []string{"netpoll", "epoll", "entersyscall", "exitsyscall", "reentersyscall"}
	gcPfx        = []string{
		"gc", "malloc", "newobject", "newarray", "makeslice", "growslice", "nextFreeFast",
		"(*mcache)", "(*mcentral)", "(*mheap)", "(*mspan)", "(*gcWork)", "(*gcControllerState)",
		"(*gcBits)", "(*gcCPULimiterState)", "(*pageAlloc)", "(*pageCache)", "(*pallocBits)", "(*pallocData)",
		"(*fixalloc)", "(*spanSet)", "(*sweepLocker)", "(*sweepLocked)", "(*activeSweep)", "(*scavenge",
		"(*wbBuf)", "(*limiterEvent)", "(*lfstack)", "(*typePointers)", "typePointers", "(*stkframe)",
		"scan", "mark", "sweep", "bgsweep", "bgscavenge", "greyobject", "findObject", "spanOf",
		"heapBits", "heapSetType", "wbBuf", "deductAssistCredit", "profilealloc", "persistentalloc",
		"sysAlloc", "sysUsed", "sysUnused", "sysFree", "sysMap", "sysHugePage", "madvise", "mmap", "munmap",
		"getempty", "putfull", "trygetfull", "tryget", "handoff", "stackalloc", "stackfree", "stackcache",
		"stackpool", "bulkBarrierPreWrite", "publicationBarrier",
	}
	schedExact = []string{"send", "recv", "sendDirect", "recvDirect", "ready", "lock", "unlock", "mcall", "Gosched", "execute", "gogo"}
	schedPfx   = []string{
		"chan", "park", "gopark", "goready", "schedule", "findRunnable", "findrunnable", "runq", "globrunq",
		"wakep", "startm", "stopm", "handoffp", "resetspinning", "stealWork", "checkTimers", "(*timers)",
		"(*timer)", "futex", "note", "lock2", "unlock2", "lockWithRank", "unlockWithRank", "osyield", "usleep",
		"procyield", "casgstatus", "dropg", "acquireSudog", "releaseSudog", "(*waitq)", "sel", "sema",
		"(*semaRoot)", "readyWithTime", "gosched", "goexit0", "goexit1", "gdestroy", "newproc", "gfget",
		"gfput", "malg", "pidle", "mPark", "mput", "mget", "preempt", "injectglist", "(*mLockProfile)",
		"(*guintptr)", "(*gQueue)", "(*gList)", "(*randomOrder)", "(*randomEnum)",
	}
)

func hasAny(name string, exact, pfx []string) bool {
	for _, e := range exact {
		if name == e || strings.HasPrefix(name, e+".") { // closures: gcBgMarkWorker.func2
			return true
		}
	}
	for _, p := range pfx {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// runtimeLayer classifies a Go runtime (or system-call package) function,
// or returns "" for runtime code of no particular kind.
func runtimeLayer(pkg, name string) string {
	switch pkg {
	case "syscall", "internal/runtime/syscall", "runtime/internal/syscall", "internal/poll", "internal/syscall/unix":
		return layerSyscall
	case "runtime":
	default:
		return ""
	}
	switch {
	case hasAny(name, memmoveExact, nil):
		return layerMemmove
	case hasAny(name, syscallExact, syscallPfx):
		return layerSyscall
	case hasAny(name, nil, gcPfx):
		return layerGC
	case hasAny(name, schedExact, schedPfx):
		return layerSched
	}
	return ""
}

// transportSide splits internal/transport between the memory node's server
// and the computing node's client by receiver type, falling back to the
// source file for package-level helpers. Helpers shared by both (wire.go)
// return "" and are charged to their caller.
func transportSide(name, file string) string {
	switch {
	case strings.HasPrefix(name, "(*Server)"), strings.HasPrefix(name, "(*request)"), strings.HasPrefix(name, "NewServer"):
		return layerServer
	case strings.HasPrefix(name, "(*Client)"), strings.HasPrefix(name, "(*lane)"),
		strings.HasPrefix(name, "(*Pending)"), strings.HasPrefix(name, "(*ClientStats)"),
		strings.HasPrefix(name, "(*call)"), strings.HasPrefix(name, "(*V1Client)"),
		strings.HasPrefix(name, "(*Backing)"), strings.HasPrefix(name, "Dial"):
		return layerClient
	}
	switch path.Base(file) {
	case "server.go":
		return layerServer
	case "client.go", "v1.go", "transport.go":
		return layerClient
	}
	return ""
}

// layerOf attributes one stack (leaf first) to a layer.
func layerOf(frames []frame) string {
	for _, f := range frames {
		pkg, name := splitFunc(f.Func)
		if l := runtimeLayer(pkg, name); l != "" {
			return l
		}
		switch {
		case pkg == "main" || strings.HasPrefix(pkg, "dilos/benchmark") || strings.HasPrefix(pkg, "dilos/cmd/"):
			return layerWorkload
		case pkg == repoPkg+"transport":
			if l := transportSide(name, f.File); l != "" {
				return l
			}
		case strings.HasPrefix(pkg, repoPkg):
			if l, ok := pkgLayer[strings.TrimPrefix(pkg, repoPkg)]; ok {
				return l
			}
		}
	}
	return layerNone
}

// layerShares buckets a profile's samples by layer and returns each
// layer's share of the total weight, in percent, keyed by the metric that
// reports it. Every share metric is present (0 when the layer took no
// samples); the values sum to 100 unless the profile is empty.
func layerShares(samples []stackSample) (shares map[string]float64, count int64) {
	weight := map[string]int64{}
	var total int64
	for _, s := range samples {
		weight[layerOf(s.Frames)] += s.Value
		total += s.Value
		count += s.Count
	}
	shares = make(map[string]float64, len(shareMetric))
	for layer, metric := range shareMetric {
		if total > 0 {
			shares[metric] = 100 * float64(weight[layer]) / float64(total)
		} else {
			shares[metric] = 0
		}
	}
	return shares, count
}
