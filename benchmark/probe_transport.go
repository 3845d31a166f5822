package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sort"
	"time"
)

// The transport probes put a floor and a ceiling around the wire workloads'
// numbers: the same op mix straight into the memory node (no wire at all),
// and the same-sized frames over a bare net.Conn (a wire but no transport
// code). What is left of the depth-1 round trip after both is
// internal/transport's own software cost.

func (w *wireWorkload) probes(c *config, tr *tracer, ms metricSet) error {
	runProbes(c, tr, ms, memnodeProbes())
	runProbes(c, tr, ms, []probe{w.execProbe(tr)})

	// Frame sizes of the mix: wire_read4k's are exact, wire_mixed's are the
	// mix-weighted means of its five classes.
	var req, resp, payload float64
	prev := 0
	for class, cum := range w.mix {
		share := float64(cum-prev) / 100
		prev = cum
		req += share * float64(classShape[class].req)
		resp += share * float64(classShape[class].resp)
		payload += share * float64(classShape[class].payload)
	}
	id := tr.begin("probe transport.loopback_floor")
	n := 20_000
	if c.quick {
		n = 500
	}
	floorUs, floorMBs, err := loopbackFloor(int(req+0.5), int(resp+0.5), payload, n)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("loopback floor: %w", err)
	}
	ms.set("transport.loopback_floor_us", floorUs, n)
	ms.set("transport.loopback_floor_mb_s", floorMBs, n)
	ms.set("transport.overhead_us", ms["wall_lat_p50_us"].Value-floorUs-ms["transport.exec_ns"].Value/1e3, 1)
	ms.set("transport.efficiency_pct", 100*ms["goodput_mb_s"].Value/floorMBs, 1)
	return nil
}

// execProbe replays the workload's op mix from one goroutine straight into
// the memory node the server fronts: what a request costs once it has
// arrived. Writes store the shadow's bytes, which the node already holds,
// so the region is unchanged. The server is idle while it runs.
func (w *wireWorkload) execProbe(tr *tracer) probe {
	gen := newRNG(w.seed, 0xe8ec)
	buf := make([]byte, pageSize)
	return probe{metric: "transport.exec_ns", per: 1, fn: func(n int) time.Duration {
		var op wireOp
		t0 := time.Now()
		for i := 0; i < n; i++ {
			w.pick(gen, 0, w.pages, nil, &op) // one op at a time: nothing in flight to clash with
			off := w.base + uint64(op.page)*pageSize
			pg := w.page(op.page)
			var err error
			switch op.class {
			case opRead4K:
				err = w.node.ReadAt(off, buf)
			case opWrite4K:
				err = w.node.WriteAt(off, pg)
			case opRead128:
				err = w.node.ReadAt(off+uint64(op.sub*128), buf[:128])
			case opReadV3:
				for _, s := range vecSegs {
					if e := w.node.ReadAt(off+uint64(s.off), buf[:s.len]); e != nil {
						err = e
					}
				}
			case opWriteV3:
				for _, s := range vecSegs {
					if e := w.node.WriteAt(off+uint64(s.off), pg[s.off:s.off+s.len]); e != nil {
						err = e
					}
				}
			}
			if err != nil {
				panic(err) // offsets come from the workload's own allocation
			}
		}
		return time.Since(t0)
	}}
}

// loopbackFloor measures a bare TCP echo over 127.0.0.1 with the
// workload's frame sizes: the median round trip of n depth-1 exchanges,
// and the payload rate of n pipelined ones with both ends buffered and
// flushing only when they run dry — the most a stream of these frames can
// do with no transport code in the way.
func loopbackFloor(reqLen, respLen int, payload float64, n int) (rttUs, mbPerS float64, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	echoed := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer conn.Close()
		br, bw := bufio.NewReaderSize(conn, 64<<10), bufio.NewWriterSize(conn, 64<<10)
		req, resp := make([]byte, reqLen), make([]byte, respLen)
		for {
			if _, err := io.ReadFull(br, req); err != nil {
				if err == io.EOF {
					err = nil
				}
				echoed <- err
				return
			}
			if _, err := bw.Write(resp); err != nil {
				echoed <- err
				return
			}
			if br.Buffered() < reqLen {
				if err := bw.Flush(); err != nil {
					echoed <- err
					return
				}
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	ln.Close() // one connection is all the probe makes
	if err != nil {
		return 0, 0, err
	}
	req, resp := make([]byte, reqLen), make([]byte, respLen)

	rtts := make([]float64, n)
	for i := range rtts {
		t0 := time.Now()
		if _, err = conn.Write(req); err == nil {
			_, err = io.ReadFull(conn, resp)
		}
		if err != nil {
			conn.Close()
			return 0, 0, err
		}
		rtts[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	sort.Float64s(rtts)

	sent := make(chan error, 1)
	t0 := time.Now()
	go func() {
		bw := bufio.NewWriterSize(conn, 64<<10)
		for i := 0; i < n; i++ {
			if _, err := bw.Write(req); err != nil {
				sent <- err
				return
			}
		}
		sent <- bw.Flush()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	for i := 0; i < n && err == nil; i++ {
		_, err = io.ReadFull(br, resp)
	}
	took := time.Since(t0)
	if serr := <-sent; err == nil {
		err = serr
	}
	conn.Close()
	if eerr := <-echoed; err == nil {
		err = eerr
	}
	if err != nil {
		return 0, 0, err
	}
	return percentileSorted(rtts, 50), float64(n) * payload / 1e6 / took.Seconds(), nil
}
