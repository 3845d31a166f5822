package experiments

// This file holds ext9, the real-process chaos extension: N real memnoded
// daemons on loopback TCP, a concurrent driver keeping an R-way replicated
// working set on them, and a harness that kill -9's one replica mid-run —
// the real-socket twin of ext4. Where ext4 proves the *simulated* pool
// rides through a node crash, ext9 proves the real transport does: every
// acknowledged byte is checked against a host-side shadow copy, every
// request carries a deadline budget bounding its stall, and once the
// killed daemon restarts the harness re-replicates onto it and throughput
// recovers.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dilos/internal/sim"
	"dilos/internal/stats"
	"dilos/internal/transport"
)

const (
	realPageSize = 4096
	realBucket   = 100 * time.Millisecond
	realPKey     = 0xd170
)

// RealChaosConfig parameterizes ext9. Zero values take defaults sized for
// a CI smoke run (a few seconds end to end).
type RealChaosConfig struct {
	MemnodedPath string // built memnoded binary; see BuildMemnoded

	Nodes    int // daemon count (>= 2)
	Replicas int // copies per page (>= 2 to survive the kill)
	Pages    int // working-set pages
	Workers  int // concurrent driver workers

	Deadline time.Duration // per-request budget: the stall bound under test

	Baseline time.Duration // healthy phase before the kill
	Outage   time.Duration // kill -9 .. restart
	Recovery time.Duration // post-restart observation

	KillNode int   // which replica the harness kill -9's
	Seed     int64 // driver RNG seed
}

func (c *RealChaosConfig) defaults() {
	if c.Nodes == 0 {
		c.Nodes = 3
	}
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.Pages == 0 {
		c.Pages = 512
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Deadline == 0 {
		c.Deadline = 500 * time.Millisecond
	}
	if c.Baseline == 0 {
		c.Baseline = time.Second
	}
	if c.Outage == 0 {
		c.Outage = 1200 * time.Millisecond
	}
	if c.Recovery == 0 {
		c.Recovery = time.Second
	}
	if c.KillNode == 0 {
		c.KillNode = 1
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
}

// RealChaosResult is the ext9 outcome.
type RealChaosResult struct {
	Nodes, Replicas, Pages int
	KilledNode             int
	KilledPid              int

	Ops, Reads, Writes int64 // successful driver operations
	FailedOps          int64 // ops that exhausted their budget (bounded errors)
	Corruptions        int64 // acknowledged bytes that read back wrong — must be 0
	Verified           int64 // page-replica pairs checked in the final sweep
	ReReplicated       int64 // pages copied back onto the restarted node
	RecoverTook        time.Duration

	// Driver throughput by phase (MB/s of page payload moved, whole
	// buckets inside each phase) plus the full per-bucket series.
	BaselineMBs, OutageMBs, RecoveredMBs float64
	Series                               []float64
	KillAt, RecoverAt                    time.Duration

	// Per-op wall latency. The acceptance gate: P99 must stay inside the
	// configured budget (plus sweep slack) even through the kill.
	DeadlineBudget               time.Duration
	StallP50, StallP99, StallMax time.Duration

	// Merged transport.* client counters.
	Transport map[string]int64
}

// BuildMemnoded builds cmd/memnoded into dir and returns the binary path.
// It must run somewhere inside the module.
func BuildMemnoded(dir string) (string, error) {
	bin := filepath.Join(dir, "memnoded")
	out, err := exec.Command("go", "build", "-o", bin, "dilos/cmd/memnoded").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("build memnoded: %v\n%s", err, out)
	}
	return bin, nil
}

// realNode is one daemon plus the harness's view of it.
type realNode struct {
	idx  int
	addr string
	cmd  *exec.Cmd
	c    *transport.Client
	base uint64
	live atomic.Bool
	// dirty[p] marks a page-replica whose daemon-side copy is not known to
	// match the shadow (an unacknowledged write, or the whole set after a
	// kill): readers and the verifier skip it until a successful write or
	// the re-replication sweep clears it.
	dirty []atomic.Bool
}

// spawnMemnoded starts a daemon and waits for its serving banner, which
// carries the bound address (so ":0" listens work).
func spawnMemnoded(bin, listen string, sizeMB int) (*exec.Cmd, string, error) {
	cmd := exec.Command(bin,
		"-listen", listen,
		"-size", strconv.Itoa(sizeMB),
		"-pkey", fmt.Sprintf("%#x", realPKey))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, " on "); i >= 0 {
				if j := strings.Index(line, ", pkey"); j > i {
					select {
					case addrCh <- line[i+4 : j]:
					default:
					}
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, addr, nil
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		return nil, "", fmt.Errorf("memnoded on %s never reported its address", listen)
	}
}

// fillPattern stamps a page buffer with its identity and version, so a
// byte served from the wrong page, the wrong offset, or a torn write shows
// up as a mismatch.
func fillPattern(buf []byte, page int, version uint64) {
	v := uint64(page)<<32 | (version & 0xFFFFFFFF)
	for i := 0; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], v+uint64(i))
	}
}

// ExtRealChaos runs ext9. It spawns cfg.Nodes memnoded processes, drives
// an R-way replicated working set from cfg.Workers concurrent workers,
// kill -9's one daemon after the baseline phase, restarts it after the
// outage phase, re-replicates onto it, and verifies every acknowledged
// byte against the host-side shadow.
func ExtRealChaos(cfg RealChaosConfig) (RealChaosResult, error) {
	cfg.defaults()
	res := RealChaosResult{
		Nodes: cfg.Nodes, Replicas: cfg.Replicas, Pages: cfg.Pages,
		KilledNode: cfg.KillNode, DeadlineBudget: cfg.Deadline,
	}
	if cfg.MemnodedPath == "" {
		return res, fmt.Errorf("ext9: MemnodedPath not set (use BuildMemnoded)")
	}
	if cfg.Replicas < 2 || cfg.Replicas > cfg.Nodes {
		return res, fmt.Errorf("ext9: replicas must be in [2, nodes], got %d/%d", cfg.Replicas, cfg.Nodes)
	}
	if cfg.KillNode < 0 || cfg.KillNode >= cfg.Nodes {
		return res, fmt.Errorf("ext9: kill node %d out of range", cfg.KillNode)
	}
	sizeMB := cfg.Pages*realPageSize>>20 + 4

	// --- spawn the pool ---------------------------------------------------
	nodes := make([]*realNode, cfg.Nodes)
	defer func() {
		for _, n := range nodes {
			if n == nil {
				continue
			}
			if n.c != nil {
				n.c.Close()
			}
			if n.cmd != nil && n.cmd.Process != nil {
				n.cmd.Process.Kill()
				n.cmd.Wait()
			}
		}
	}()
	for i := range nodes {
		cmd, addr, err := spawnMemnoded(cfg.MemnodedPath, "127.0.0.1:0", sizeMB)
		if err != nil {
			return res, err
		}
		n := &realNode{idx: i, addr: addr, cmd: cmd, dirty: make([]atomic.Bool, cfg.Pages)}
		nodes[i] = n
		n.c, err = transport.Dial(addr, realPKey,
			transport.WithDeadline(cfg.Deadline),
			transport.WithDepth(32),
			transport.WithRedials(50), // budget, not attempts, bounds a request
			transport.WithBreaker(8, 200*time.Millisecond))
		if err != nil {
			return res, fmt.Errorf("ext9: dial node %d: %w", i, err)
		}
		if n.base, err = n.c.Alloc(uint32(cfg.Pages)); err != nil {
			return res, fmt.Errorf("ext9: alloc on node %d: %w", i, err)
		}
		n.live.Store(true)
	}

	// --- shared driver state ----------------------------------------------
	shadow := make([]byte, cfg.Pages*realPageSize)
	versions := make([]uint64, cfg.Pages)
	locks := make([]sync.RWMutex, cfg.Pages)
	for p := 0; p < cfg.Pages; p++ { // seed every page so reads verify from op one
		locks[p].Lock()
		versions[p] = 1
		buf := shadow[p*realPageSize : (p+1)*realPageSize]
		fillPattern(buf, p, 1)
		for k := 0; k < cfg.Replicas; k++ {
			n := nodes[(p+k)%cfg.Nodes]
			if err := n.c.Write(n.base+uint64(p)*realPageSize, buf); err != nil {
				locks[p].Unlock()
				return res, fmt.Errorf("ext9: seed page %d on node %d: %w", p, n.idx, err)
			}
		}
		locks[p].Unlock()
	}

	total := cfg.Baseline + cfg.Outage + cfg.Recovery
	buckets := make([]int64, int(total/realBucket)+100)
	var ops, reads, writes, failed, corruptions atomic.Int64
	stop := make(chan struct{})
	t0 := time.Now()
	account := func(n int64) {
		if i := int(time.Since(t0) / realBucket); i < len(buckets) {
			atomic.AddInt64(&buckets[i], n)
		}
	}

	// --- workers ----------------------------------------------------------
	var wg sync.WaitGroup
	workerLats := make([][]sim.Time, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
			rbuf := make([]byte, realPageSize)
			wbuf := make([]byte, realPageSize)
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := rng.Intn(cfg.Pages)
				start := time.Now()
				if rng.Intn(100) < 30 {
					// Write: bump the version, push to every live replica,
					// commit to the shadow if at least one replica took it.
					// Replicas that failed (or were skipped) go dirty until
					// a later write or the re-replication sweep heals them.
					locks[p].Lock()
					versions[p]++
					fillPattern(wbuf, p, versions[p])
					okAny := false
					for k := 0; k < cfg.Replicas; k++ {
						n := nodes[(p+k)%cfg.Nodes]
						if !n.live.Load() {
							n.dirty[p].Store(true)
							continue
						}
						if err := n.c.Write(n.base+uint64(p)*realPageSize, wbuf); err != nil {
							n.dirty[p].Store(true)
							failed.Add(1)
						} else {
							n.dirty[p].Store(false)
							okAny = true
						}
					}
					if okAny {
						copy(shadow[p*realPageSize:], wbuf)
						writes.Add(1)
						ops.Add(1)
						account(realPageSize)
					} else {
						versions[p]-- // nobody took it; keep the shadow honest
					}
					locks[p].Unlock()
				} else {
					// Read: first live, clean replica; fail over on error.
					locks[p].RLock()
					got := false
					for k := 0; k < cfg.Replicas && !got; k++ {
						n := nodes[(p+k)%cfg.Nodes]
						if !n.live.Load() || n.dirty[p].Load() {
							continue
						}
						if err := n.c.Read(n.base+uint64(p)*realPageSize, rbuf); err != nil {
							failed.Add(1)
							continue
						}
						if !bytes.Equal(rbuf, shadow[p*realPageSize:(p+1)*realPageSize]) {
							corruptions.Add(1)
						}
						got = true
					}
					if got {
						reads.Add(1)
						ops.Add(1)
						account(realPageSize)
					}
					locks[p].RUnlock()
				}
				workerLats[w] = append(workerLats[w], sim.Time(time.Since(start).Nanoseconds()))
			}
		}(w)
	}

	// --- timeline: baseline, kill -9, restart, re-replicate ---------------
	victim := nodes[cfg.KillNode]
	time.Sleep(cfg.Baseline)
	res.KillAt = time.Since(t0)
	res.KilledPid = victim.cmd.Process.Pid
	// Kill first, mark dead second: requests in flight (and the few issued
	// in between) hit a dead server for real, so the run measures the
	// client's bounded failure path, not just the harness's bookkeeping.
	victim.cmd.Process.Kill() // SIGKILL: no drain, no goodbye
	victim.cmd.Wait()
	victim.live.Store(false)

	time.Sleep(cfg.Outage)

	// Restart on the same port, wait for it to serve, and heal it.
	recoverStart := time.Now()
	cmd, addr, err := spawnMemnoded(cfg.MemnodedPath, victim.addr, sizeMB)
	if err != nil {
		close(stop)
		wg.Wait()
		return res, fmt.Errorf("ext9: restart node %d: %w", cfg.KillNode, err)
	}
	victim.cmd, victim.addr = cmd, addr
	pingDeadline := time.Now().Add(10 * time.Second)
	for {
		if err = victim.c.Ping(); err == nil {
			break
		}
		if time.Now().After(pingDeadline) {
			close(stop)
			wg.Wait()
			return res, fmt.Errorf("ext9: restarted node %d never answered: %w", cfg.KillNode, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	base, err := victim.c.Alloc(uint32(cfg.Pages))
	if err != nil || base != victim.base {
		close(stop)
		wg.Wait()
		return res, fmt.Errorf("ext9: realloc on restarted node: base %d vs %d, err %v", base, victim.base, err)
	}
	// The restarted daemon is empty: every replica it owns is dirty. Bring
	// it live so fresh writes land on it, then sweep the survivors' copies
	// across page by page, clearing dirty as each lands.
	for p := 0; p < cfg.Pages; p++ {
		victim.dirty[p].Store(true)
	}
	victim.live.Store(true)
	sweepBuf := make([]byte, realPageSize)
	for p := 0; p < cfg.Pages; p++ {
		owned := false
		for k := 0; k < cfg.Replicas; k++ {
			if (p+k)%cfg.Nodes == cfg.KillNode {
				owned = true
			}
		}
		if !owned {
			victim.dirty[p].Store(false) // not a replica of p; nothing to heal
			continue
		}
		locks[p].Lock()
		if !victim.dirty[p].Load() { // a concurrent write already healed it
			locks[p].Unlock()
			continue
		}
		healed := false
		for k := 0; k < cfg.Replicas && !healed; k++ {
			n := nodes[(p+k)%cfg.Nodes]
			if n == victim || !n.live.Load() || n.dirty[p].Load() {
				continue
			}
			if n.c.Read(n.base+uint64(p)*realPageSize, sweepBuf) != nil {
				continue
			}
			if victim.c.Write(victim.base+uint64(p)*realPageSize, sweepBuf) == nil {
				victim.dirty[p].Store(false)
				res.ReReplicated++
				healed = true
			}
		}
		locks[p].Unlock()
	}
	res.RecoverTook = time.Since(recoverStart)
	res.RecoverAt = time.Since(t0)

	time.Sleep(cfg.Recovery)
	close(stop)
	wg.Wait()

	// --- final verification sweep ------------------------------------------
	vbuf := make([]byte, realPageSize)
	for p := 0; p < cfg.Pages; p++ {
		for k := 0; k < cfg.Replicas; k++ {
			n := nodes[(p+k)%cfg.Nodes]
			if !n.live.Load() || n.dirty[p].Load() {
				continue
			}
			if err := n.c.Read(n.base+uint64(p)*realPageSize, vbuf); err != nil {
				failed.Add(1)
				continue
			}
			res.Verified++
			if !bytes.Equal(vbuf, shadow[p*realPageSize:(p+1)*realPageSize]) {
				corruptions.Add(1)
			}
		}
	}

	// --- results ----------------------------------------------------------
	res.Ops, res.Reads, res.Writes = ops.Load(), reads.Load(), writes.Load()
	res.FailedOps, res.Corruptions = failed.Load(), corruptions.Load()
	h := stats.NewHistogram("ext9.op")
	for _, lats := range workerLats {
		for _, l := range lats {
			h.Record(l)
		}
	}
	res.StallP50 = time.Duration(h.P50())
	res.StallP99 = time.Duration(h.P99())
	res.StallMax = time.Duration(h.Max())
	end := time.Since(t0)
	if nb := int(end / realBucket); nb < len(buckets) {
		buckets = buckets[:nb]
	}
	for _, b := range buckets {
		res.Series = append(res.Series, float64(b)/1e6/realBucket.Seconds())
	}
	res.BaselineMBs = realPhaseMBs(buckets, 0, res.KillAt)
	res.OutageMBs = realPhaseMBs(buckets, res.KillAt, res.RecoverAt)
	res.RecoveredMBs = realPhaseMBs(buckets, res.RecoverAt, end)
	res.Transport = map[string]int64{}
	for _, n := range nodes {
		for k, v := range n.c.Stats.Snapshot() {
			res.Transport[k] += v
		}
	}
	return res, nil
}

// realPhaseMBs averages whole buckets inside [from, to) into MB/s.
func realPhaseMBs(buckets []int64, from, to time.Duration) float64 {
	var bytesN int64
	n := 0
	for i, b := range buckets {
		at := time.Duration(i) * realBucket
		if at >= from && at+realBucket <= to {
			bytesN += b
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(bytesN) / 1e6 / (time.Duration(n) * realBucket).Seconds()
}
