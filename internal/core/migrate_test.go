package core

import (
	"encoding/json"
	"testing"

	"dilos/internal/chaos"
	"dilos/internal/fabric"
	"dilos/internal/migrate"
	"dilos/internal/pagetable"
	"dilos/internal/placement"
	"dilos/internal/sim"
	"dilos/internal/telemetry"
)

// elasticSys builds a 3-node system with the migration engine armed.
func elasticSys(t *testing.T, replicas int, tun migrate.Tuning, inj *chaos.Injector) (*System, *sim.Engine) {
	t.Helper()
	eng := sim.New()
	sys := New(eng, Config{
		CacheFrames: 32,
		Cores:       2,
		RemoteBytes: 32 << 20,
		Fabric:      fabric.DefaultParams(),
		MemNodes:    3,
		Replicas:    replicas,
		Chaos:       inj,
		Migrate:     &tun,
	})
	sys.Start()
	return sys, eng
}

// cyclingApp stamps pages with pass-dependent values and cycles the
// working set (8× the cache) until `until`, verifying every load — any
// page whose bytes a migration, crash, or write-back race corrupted
// fails the test.
func cyclingApp(t *testing.T, sys *System, pages uint64, until sim.Time) *uint64 {
	base := new(uint64)
	sys.Launch("app", 0, func(sp *DDCProc) {
		b, err := sys.MmapDDC(pages)
		if err != nil {
			t.Error(err)
			return
		}
		*base = b
		val := func(i, pass uint64) uint64 { return i*2654435761 + pass*7919 }
		for i := uint64(0); i < pages; i++ {
			sp.StoreU64(b+i*PageSize, val(i, 0))
		}
		pass := uint64(0)
		for sp.Proc().Now() < until {
			for i := uint64(0); i < pages; i++ {
				if got := sp.LoadU64(b + i*PageSize); got != val(i, pass) {
					t.Errorf("pass %d page %d: got %#x want %#x", pass, i, got, val(i, pass))
					return
				}
				sp.StoreU64(b+i*PageSize, val(i, pass+1))
			}
			pass++
		}
		if pass == 0 {
			t.Error("workload never completed a pass")
		}
	})
	return base
}

// assertEvacuated checks no page keeps a replica on the removed node and
// that replica sets stayed distinct.
func assertEvacuated(t *testing.T, sys *System, base uint64, pages uint64, node, replicas int) {
	t.Helper()
	for i := uint64(0); i < pages; i++ {
		v := pagetable.VPNOf(base + i*PageSize)
		slots, ok := sys.Space().AllSlots(v)
		if !ok || len(slots) != replicas {
			t.Fatalf("page %d: %d replica slots, want %d", i, len(slots), replicas)
		}
		seen := map[int]bool{}
		for _, sl := range slots {
			if sl.Node == node {
				t.Fatalf("page %d still resolves to drained node %d", i, node)
			}
			if seen[sl.Node] {
				t.Fatalf("page %d replicas collapsed onto node %d", i, sl.Node)
			}
			seen[sl.Node] = true
		}
	}
}

func TestDrainUnderLoadEvacuatesNode(t *testing.T) {
	// The acceptance scenario: a 3-node system drains node 2 while the
	// workload keeps faulting, evicting, and cleaning through it. The
	// drain completes mid-run, the node leaves the pool, and every page
	// survives with its latest stores.
	sys, eng := elasticSys(t, 1, migrate.Tuning{}, nil)
	const pages = 256
	base := cyclingApp(t, sys, pages, 8*sim.Millisecond)
	drained := false
	eng.Go("driver", func(p *sim.Proc) {
		p.Sleep(500 * sim.Microsecond)
		if err := sys.Drain(2); err != nil {
			t.Errorf("drain: %v", err)
			return
		}
		for p.Now() < 7*sim.Millisecond {
			if sys.Space().State(2) == placement.Removed {
				drained = true
				return
			}
			p.Sleep(100 * sim.Microsecond)
		}
	})
	eng.Run()
	if !drained {
		t.Fatal("drain did not complete within the run")
	}
	if occ := sys.Space().Occupancy(2); occ != 0 {
		t.Fatalf("removed node still hosts %d slots", occ)
	}
	if sys.Mig.PagesMoved.N == 0 || sys.Mig.DrainsDone.N != 1 {
		t.Fatalf("moved=%d drains_done=%d", sys.Mig.PagesMoved.N, sys.Mig.DrainsDone.N)
	}
	assertEvacuated(t, sys, *base, pages, 2, 1)
}

func TestDrainSurvivesDrainingNodeCrash(t *testing.T) {
	// Chaos kills the draining node mid-evacuation. With 2 replicas the
	// engine rolls forward by copying from the survivors, the health
	// monitor's breaker marks the corpse Failed, and the drain still ends
	// in Removed with every page on two distinct live nodes — zero loss.
	inj := chaos.NewInjector(chaos.Config{
		Seed: 99,
		Crashes: []chaos.CrashWindow{
			{Node: 2, At: 400 * sim.Microsecond, Until: 2500 * sim.Microsecond},
		},
	})
	sys, eng := elasticSys(t, 2, migrate.Tuning{BatchPages: 8}, inj)
	const pages = 256
	base := cyclingApp(t, sys, pages, 10*sim.Millisecond)
	drained := false
	eng.Go("driver", func(p *sim.Proc) {
		p.Sleep(300 * sim.Microsecond)
		if err := sys.Drain(2); err != nil {
			t.Errorf("drain: %v", err)
			return
		}
		for p.Now() < 9*sim.Millisecond {
			if sys.Space().State(2) == placement.Removed {
				drained = true
				return
			}
			p.Sleep(100 * sim.Microsecond)
		}
	})
	eng.Run()
	if !drained {
		t.Fatal("drain never completed despite the crash window ending")
	}
	if sys.Chaos.Crashed.N == 0 {
		t.Fatal("crash window injected nothing — the test exercised no failure")
	}
	assertEvacuated(t, sys, *base, pages, 2, 2)
	if sys.Mig.PagesMoved.N == 0 {
		t.Fatal("no pages migrated")
	}
}

func TestMigrationSameSeedDeterminism(t *testing.T) {
	// Two identical runs with migration racing the fault path, the
	// cleaner, flaky chaos, and a mid-run drain must finish with
	// byte-identical metric snapshots.
	run := func() []byte {
		inj := chaos.NewInjector(chaos.Config{
			Seed:       4242,
			FailProb:   0.01,
			TailProb:   0.03,
			TailFactor: 6,
		})
		sys, eng := elasticSys(t, 2, migrate.Tuning{Watermark: 0.05}, inj)
		const pages = 128
		cyclingApp(t, sys, pages, 6*sim.Millisecond)
		eng.Go("driver", func(p *sim.Proc) {
			p.Sleep(800 * sim.Microsecond)
			if err := sys.Drain(2); err != nil {
				t.Errorf("drain: %v", err)
			}
		})
		eng.Run()
		b, err := json.Marshal(sys.Registry().Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("same seed diverged:\n%s\nvs\n%s", a, b)
	}
}

// A node joining mid-run gets a health watcher whose first probe comes at
// or after the join, never in the virtual past.
func TestAddMemNodeHealthWatcherStartsAtJoin(t *testing.T) {
	const joinAt = 5 * sim.Millisecond
	rec := telemetry.NewRecorder(0)
	eng := sim.New()
	sys := New(eng, Config{
		CacheFrames: 32,
		Cores:       2,
		RemoteBytes: 32 << 20,
		Fabric:      fabric.DefaultParams(),
		MemNodes:    2,
		Chaos:       chaos.NewInjector(chaos.Config{Seed: 1}),
		Tel:         rec,
	})
	sys.Start()
	eng.Go("driver", func(p *sim.Proc) {
		p.Sleep(joinAt)
		if _, err := sys.AddMemNode(); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(sim.Millisecond) // room for a few probes
	})
	eng.Run()
	var probes []telemetry.Span
	for id, name := range rec.Tracks() {
		if name == "fabric.node2" {
			probes = rec.Spans(id)
		}
	}
	if len(probes) == 0 {
		t.Fatal("the joined node was never probed")
	}
	if first := probes[0].Start; first < joinAt {
		t.Fatalf("first probe of the joiner at %v, before its join at %v", first, joinAt)
	}
}

func TestAddMemNodeRebalancesOntoJoiner(t *testing.T) {
	// A node added mid-run joins empty; the join-triggered rebalance
	// pulls pages onto it without disturbing the workload's data.
	eng := sim.New()
	sys := New(eng, Config{
		CacheFrames: 32,
		Cores:       2,
		RemoteBytes: 32 << 20,
		Fabric:      fabric.DefaultParams(),
		MemNodes:    2,
		Migrate:     &migrate.Tuning{},
	})
	sys.Start()
	const pages = 192
	base := cyclingApp(t, sys, pages, 6*sim.Millisecond)
	joined := -1
	eng.Go("driver", func(p *sim.Proc) {
		p.Sleep(500 * sim.Microsecond)
		id, err := sys.AddMemNode()
		if err != nil {
			t.Errorf("add: %v", err)
			return
		}
		joined = id
		for p.Now() < 5*sim.Millisecond {
			if sys.Space().Occupancy(id) > 0 && sys.Mig.Idle() {
				return
			}
			p.Sleep(100 * sim.Microsecond)
		}
	})
	eng.Run()
	if joined != 2 {
		t.Fatalf("joined node id %d, want 2", joined)
	}
	if occ := sys.Space().Occupancy(2); occ == 0 {
		t.Fatal("rebalance moved nothing onto the joiner")
	}
	if sys.Mig.Rebalances.N == 0 {
		t.Fatal("no rebalance batches recorded")
	}
	assertEvacuated(t, sys, *base, pages, -1, 1)
}
