// Command memnoded is the memory node daemon: it registers a memory region
// and serves one-sided READ/WRITE/vectored requests over the TCP transport
// (internal/transport, protocol v2) — the role
// the paper's memory node plays (§5 "Memory node"), runnable on any host.
//
// Usage:
//
//	memnoded -listen :7479 -size 1024 -pkey 0xd170
//	memnoded -listen :7479 -metrics-addr :9479   # + /metrics /statusz /healthz /journalz
//	memnoded -listen :7479 -debug-addr :6060     # + net/http/pprof
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // -debug-addr; no listener unless the flag is set
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"dilos/internal/memnode"
	"dilos/internal/obs"
	"dilos/internal/sim"
	"dilos/internal/stats"
	"dilos/internal/transport"
)

// plane is memnoded's wall-clock observability plane: the same monitor,
// journal, and exporter the simulator uses, but clocked by time.Since(start)
// instead of virtual time. ObserveLatency arrives from concurrent
// connection handlers, and the SLO monitor is unsynchronised by design, so
// every touch funnels through mu.
type plane struct {
	mu    sync.Mutex
	start time.Time

	mon   *obs.Monitor
	sloID int
	jrn   *obs.Journal
	hist  *stats.Histogram
	sink  *obs.Server

	node *memnode.Node
	srv  *transport.Server
}

func newPlane(node *memnode.Node, srv *transport.Server, budget time.Duration) *plane {
	j := obs.NewJournal(0)
	m := obs.NewMonitor(j)
	p := &plane{
		start: time.Now(),
		mon:   m,
		jrn:   j,
		hist:  stats.NewHistogram("memnoded.op_latency"),
		sink:  obs.NewServer(),
		node:  node,
		srv:   srv,
	}
	p.sloID = m.Register(obs.Objective{
		Name:   "memnoded",
		Budget: sim.Time(budget.Nanoseconds()),
		// Wall-clock multi-window defaults: 14.4x over 1h/5m, 6x over
		// 6h/30m — the monitor's windows are clock-agnostic.
	})
	srv.ObserveLatency = func(ns int64) {
		p.mu.Lock()
		p.mon.Observe(p.sloID, p.now(), sim.Time(ns))
		p.hist.Record(sim.Time(ns))
		p.mu.Unlock()
	}
	return p
}

// now is the plane's clock: wall nanoseconds since process start, in the
// sim.Time unit the monitor's windows are expressed in.
func (p *plane) now() sim.Time { return sim.Time(time.Since(p.start).Nanoseconds()) }

// emit appends one journal event under the lock.
func (p *plane) emit(typ string, attrs ...obs.Attr) {
	p.mu.Lock()
	p.jrn.Emit(p.now(), typ, attrs...)
	p.mu.Unlock()
}

// snapshot rebuilds the exporter registry from the transport's atomics and
// the node's allocator — the daemon's metrics live in lock-free counters,
// so the registry is assembled per scrape-publish rather than maintained.
func (p *plane) snapshot() stats.Snapshot {
	r := stats.NewRegistry()
	for _, c := range []*stats.Counter{
		{Name: "memnoded.reads", N: p.srv.Reads.Load()},
		{Name: "memnoded.writes", N: p.srv.Writes.Load()},
		{Name: "memnoded.pings", N: p.srv.Pings.Load()},
		{Name: "memnoded.batches", N: p.srv.Batches.Load()},
		{Name: "memnoded.rejects", N: p.srv.Rejects.Load()},
	} {
		r.RegisterCounter(c)
	}
	pages := &stats.Gauge{Name: "memnoded.pages_in_use"}
	pages.Set(int64(p.node.PagesInUse()))
	huge := &stats.Gauge{Name: "memnoded.huge_pages"}
	huge.Set(int64(p.node.HugePages()))
	r.RegisterGauge(pages)
	r.RegisterGauge(huge)
	r.RegisterHistogram(p.hist)
	p.mon.RegisterStats(r)
	return r.Snapshot()
}

// publish renders and swaps in all four endpoint pages. Called from the
// collector tick, under the lock for the monitor/histogram/journal parts.
func (p *plane) publish() {
	p.mu.Lock()
	now := p.now()
	p.mon.Evaluate(now)
	metrics := obs.AppendMetrics(nil, p.snapshot(), nil)
	status := append([]byte(nil), "memnoded status at "...)
	status = append(status, now.String()...)
	status = append(status, fmt.Sprintf("\npages_in_use=%d huge_pages=%d draining=%v\n",
		p.node.PagesInUse(), p.node.HugePages(), p.srv.Draining())...)
	status = p.mon.AppendStatus(status, now)
	journal := p.jrn.AppendJSONL(nil)
	p.mu.Unlock()

	p.sink.PublishMetrics(metrics)
	p.sink.PublishStatus(status)
	p.sink.PublishJournal(journal)
	if p.srv.Draining() {
		p.sink.SetHealth(false, "draining")
	} else {
		p.sink.SetHealth(true, "ok")
	}
}

func main() {
	listen := flag.String("listen", ":7479", "address to listen on")
	sizeMB := flag.Uint64("size", 1024, "registered region size (MiB)")
	pkey := flag.Uint("pkey", 0xd170, "protection key clients must present")
	statsEvery := flag.Duration("stats", 0, "periodically log usage (e.g. 30s; 0 disables)")
	drainGrace := flag.Duration("drain-grace", 2*time.Second,
		"how long a graceful shutdown waits for clients to hang up")
	metricsAddr := flag.String("metrics-addr", "",
		"serve /metrics, /statusz, /journalz, /healthz on this address (empty disables)")
	metricsEvery := flag.Duration("metrics-interval", time.Second,
		"how often the exporter pages refresh")
	sloBudget := flag.Duration("slo-budget", time.Millisecond,
		"per-request latency budget for the burn-rate SLO (99.9% of ops must finish within it)")
	debugAddr := flag.String("debug-addr", "",
		"serve net/http/pprof on this address (off by default; see DESIGN.md §14)")
	flag.Parse()

	node := memnode.New(*sizeMB<<20, uint32(*pkey))
	srv := transport.NewServer(node)

	var pl *plane
	if *metricsAddr != "" {
		pl = newPlane(node, srv, *sloBudget)
		addr, err := pl.sink.ListenAndServe(*metricsAddr)
		if err != nil {
			log.Fatalf("memnoded: metrics: %v", err)
		}
		pl.emit("boot", obs.I("size_mib", int64(*sizeMB)))
		pl.publish() // pages are live before the first tick
		go func() {
			for range time.Tick(*metricsEvery) {
				pl.publish()
			}
		}()
		fmt.Printf("memnoded: metrics on http://%s/metrics\n", addr)
	}
	if *debugAddr != "" {
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("memnoded: pprof: %v", err)
			}
		}()
		fmt.Printf("memnoded: pprof on http://%s/debug/pprof/\n", *debugAddr)
	}

	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Fatalf("memnoded: %v", err)
	}
	fmt.Printf("memnoded: serving %d MiB (%d huge pages) on %s, pkey %#x\n",
		*sizeMB, node.HugePages(), addr, *pkey)

	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				log.Printf("memnoded: %d pages in use, %d reads, %d writes, %d batches, %d rejects served",
					node.PagesInUse(), srv.Reads.Load(), srv.Writes.Load(),
					srv.Batches.Load(), srv.Rejects.Load())
			}
		}()
	}
	// Graceful shutdown on SIGINT/SIGTERM (both — orchestrators send
	// SIGTERM): enter the drain phase so in-flight requests finish and new
	// ones are answered StatusDraining, then exit once the connections are
	// gone or the grace runs out.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		s := <-sig
		log.Printf("memnoded: %v: draining (%d pages in use, %d reads, %d writes served)",
			s, node.PagesInUse(), srv.Reads.Load(), srv.Writes.Load())
		if pl != nil {
			pl.emit("drain_requested", obs.S("signal", s.String()))
			pl.publish()
		}
		srv.Drain(*drainGrace)
		close(done)
	}()

	if err := srv.Serve(); err != nil {
		log.Printf("memnoded: listener closed: %v", err)
	}
	select {
	case <-done: // drained
	case <-time.After(100 * time.Millisecond):
		// Serve returned without a signal (listener closed some other way).
	}
}
