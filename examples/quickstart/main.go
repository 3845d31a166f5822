// Quickstart: build a DiLOS computing node with 25% local memory, allocate
// disaggregated memory through the POSIX-style compat layer, touch it like
// ordinary memory, and watch the paging subsystem do its work underneath.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"dilos/internal/core"
	"dilos/internal/fabric"
	"dilos/internal/prefetch"
	"dilos/internal/sim"
	"dilos/internal/telemetry"
)

func main() {
	// Everything runs in deterministic virtual time on a simulated RDMA
	// fabric calibrated to the paper's testbed (100GbE ConnectX-5).
	eng := sim.New()

	const workingSetPages = 4096 // 16 MiB of application data
	sys := core.New(eng, core.Config{
		CacheFrames: workingSetPages / 4, // 25% local memory
		Cores:       2,
		RemoteBytes: 256 << 20,
		Fabric:      fabric.DefaultParams(),
		Prefetcher:  prefetch.NewReadahead(0), // Linux-style readahead
		// A totals-only flight recorder: per-stage sums of every fault,
		// no span rings kept.
		Tel: telemetry.NewTotals(),
	})
	sys.Start() // launches the cleaner, reclaimer, and prefetch mappers

	sys.Launch("app", 0, func(sp *core.DDCProc) {
		// The compat layer: plain malloc, plain loads and stores. The
		// application does not know (or care) that 75% of its heap lives
		// on the memory node.
		buf := sp.Malloc(workingSetPages * 4096)

		fmt.Println("writing 16 MiB through the unified page table...")
		for i := uint64(0); i < workingSetPages; i++ {
			sp.StoreU64(buf+i*4096, i*i)
		}
		fmt.Println("reading it back (most pages now live on the memory node)...")
		bad := 0
		for i := uint64(0); i < workingSetPages; i++ {
			if sp.LoadU64(buf+i*4096) != i*i {
				bad++
			}
		}
		fmt.Printf("verified %d pages, %d mismatches, virtual time %v\n",
			workingSetPages, bad, sp.Now())
	})
	eng.Run()

	fmt.Println()
	fmt.Println("what the LibOS did meanwhile:")
	fmt.Printf("  major faults:     %d (remote fetches)\n", sys.MajorFaults.N)
	fmt.Printf("  minor faults:     %d (waited on an in-flight prefetch)\n", sys.MinorFaults.N)
	fmt.Printf("  prefetch hits:    %d (page already mapped on arrival)\n", sys.LateMapHits.N)
	fmt.Printf("  pages prefetched: %d\n", sys.Prefetches.N)
	fmt.Printf("  cleaner wrote:    %d dirty pages back (off the fault path)\n", sys.Mgr.Cleaned.N)
	fmt.Printf("  reclaimer evicted:%d cold pages (fault path reclaim: 0)\n", sys.Mgr.Evicted.N)
	t := sys.Tel.Totals(telemetry.KindMajorFault)
	fmt.Printf("  mean major fault: %v (exception %v + handler %v + prefetch %v + fetch %v + map %v)\n",
		t.Dur/sim.Time(t.N), t.Mean(telemetry.StageException), t.Mean(telemetry.StageLookup),
		t.Mean(telemetry.StageIssue)+t.Mean(telemetry.StageGuide), t.Mean(telemetry.StageWait),
		t.Mean(telemetry.StageMap))
	fmt.Printf("  network:          rx %d MiB, tx %d MiB\n",
		sys.Link.RxBytes.N>>20, sys.Link.TxBytes.N>>20)
}
