package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

func TestSingleProcAdvance(t *testing.T) {
	e := New()
	var end Time
	e.Go("solo", func(p *Proc) {
		p.Advance(5 * Microsecond)
		p.Advance(7 * Microsecond)
		end = p.Now()
	})
	e.Run()
	if end != 12*Microsecond {
		t.Fatalf("end = %v, want 12us", end)
	}
}

func TestSleepOrdersProcs(t *testing.T) {
	e := New()
	var order []string
	e.Go("a", func(p *Proc) {
		p.Sleep(30)
		order = append(order, "a")
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(10)
		order = append(order, "b")
	})
	e.Go("c", func(p *Proc) {
		p.Sleep(20)
		order = append(order, "c")
	})
	e.Run()
	want := []string{"b", "c", "a"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTieBrokenByCreationOrder(t *testing.T) {
	e := New()
	var order []string
	for _, name := range []string{"p0", "p1", "p2"} {
		name := name
		e.Go(name, func(p *Proc) {
			p.Sleep(100)
			order = append(order, name)
		})
	}
	e.Run()
	if fmt.Sprint(order) != "[p0 p1 p2]" {
		t.Fatalf("order = %v", order)
	}
}

func TestWaiterWakeMovesClockForward(t *testing.T) {
	e := New()
	var w Waiter
	var wokenAt Time
	e.Go("sleeper", func(p *Proc) {
		w.Wait(p)
		wokenAt = p.Now()
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(500)
		w.Wake(p.Now())
	})
	e.Run()
	if wokenAt != 500 {
		t.Fatalf("wokenAt = %v, want 500", wokenAt)
	}
}

func TestWaiterDoesNotRewindClock(t *testing.T) {
	e := New()
	var w Waiter
	var wokenAt Time
	e.Go("late-sleeper", func(p *Proc) {
		p.Advance(1000) // already past the waker's time
		w.Wait(p)
		wokenAt = p.Now()
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(500)
		for w.Len() == 0 {
			p.Sleep(100)
		}
		w.Wake(p.Now())
	})
	e.Run()
	if wokenAt != 1000 {
		t.Fatalf("wokenAt = %v, want 1000 (clock must not rewind)", wokenAt)
	}
}

func TestWakeOneIsFIFO(t *testing.T) {
	e := New()
	var w Waiter
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(Time(i)) // park in order 0,1,2
			w.Wait(p)
			order = append(order, i)
		})
	}
	e.Go("waker", func(p *Proc) {
		p.Sleep(100)
		for i := 0; i < 3; i++ {
			w.WakeOne(p.Now())
			p.Sleep(10)
		}
	})
	e.Run()
	if fmt.Sprint(order) != "[0 1 2]" {
		t.Fatalf("order = %v", order)
	}
}

func TestDaemonDoesNotBlockExit(t *testing.T) {
	e := New()
	ticks := 0
	e.GoDaemon("daemon", func(p *Proc) {
		for {
			p.Sleep(10)
			ticks++
			if ticks > 1000 {
				return // safety: should never get here
			}
		}
	})
	e.Go("worker", func(p *Proc) { p.Sleep(55) })
	e.Run()
	if ticks > 6 {
		t.Fatalf("daemon ran %d ticks after workers finished", ticks)
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	e := New()
	var w Waiter
	e.Go("stuck", func(p *Proc) { w.Wait(p) })
	e.Run()
}

func TestSpawnDuringRun(t *testing.T) {
	e := New()
	var childEnd Time
	e.Go("parent", func(p *Proc) {
		p.Sleep(100)
		at := p.Now()
		e.Go("child", func(c *Proc) {
			c.WaitUntil(at)
			c.Sleep(50)
			childEnd = c.Now()
		})
		p.Sleep(1)
	})
	e.Run()
	if childEnd != 150 {
		t.Fatalf("childEnd = %v, want 150", childEnd)
	}
}

func TestEngineNowIsMonotone(t *testing.T) {
	e := New()
	var observed []Time
	for i := 0; i < 5; i++ {
		d := Time((5 - i) * 10)
		e.Go("p", func(p *Proc) {
			p.Sleep(d)
			observed = append(observed, e.Now())
		})
	}
	e.Run()
	if !sort.SliceIsSorted(observed, func(i, j int) bool { return observed[i] <= observed[j] }) {
		t.Fatalf("engine Now went backwards: %v", observed)
	}
}

// Property: for any set of sleep durations, procs complete in sorted order
// of duration (ties by creation order), and the engine's final Now equals
// the maximum duration.
func TestQuickSleepOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 64 {
			return true
		}
		e := New()
		type done struct {
			idx int
			d   Time
		}
		var finished []done
		for i, r := range raw {
			i, d := i, Time(r)
			e.Go("p", func(p *Proc) {
				p.Sleep(d)
				finished = append(finished, done{i, d})
			})
		}
		e.Run()
		if len(finished) != len(raw) {
			return false
		}
		for k := 1; k < len(finished); k++ {
			a, b := finished[k-1], finished[k]
			if a.d > b.d || (a.d == b.d && a.idx > b.idx) {
				return false
			}
		}
		max := Time(0)
		for _, r := range raw {
			if Time(r) > max {
				max = Time(r)
			}
		}
		return e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a run is deterministic — same program, same interleaving.
func TestQuickDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var w Waiter
		var trace []int
		for i := 0; i < 10; i++ {
			i := i
			d := Time(rng.Intn(100))
			e.Go("p", func(p *Proc) {
				p.Sleep(d)
				trace = append(trace, i)
				if i%3 == 0 {
					w.Wake(p.Now())
				} else if i%3 == 1 && i < 7 {
					w.Wait(p)
					trace = append(trace, 100+i)
				}
			})
		}
		e.GoDaemon("sweeper", func(p *Proc) {
			for {
				p.Sleep(1000)
				w.Wake(p.Now())
			}
		})
		e.Run()
		return trace
	}
	f := func(seed int64) bool {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func BenchmarkAdvance(b *testing.B) {
	e := New()
	e.Go("bench", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(1)
		}
	})
	e.Run()
}

func BenchmarkSleepSwitch(b *testing.B) {
	e := New()
	for k := 0; k < 2; k++ {
		e.Go("bench", func(p *Proc) {
			for i := 0; i < b.N/2; i++ {
				p.Sleep(1)
			}
		})
	}
	e.Run()
}

func TestBarrierReleasesAtLatestTime(t *testing.T) {
	e := New()
	b := NewBarrier(3)
	var outs []Time
	for i := 0; i < 3; i++ {
		d := Time((i + 1) * 100)
		e.Go("w", func(p *Proc) {
			p.Sleep(d)
			b.Wait(p)
			outs = append(outs, p.Now())
		})
	}
	e.Run()
	if len(outs) != 3 {
		t.Fatal("not everyone released")
	}
	for _, o := range outs {
		if o != 300 {
			t.Fatalf("released at %v, want 300", o)
		}
	}
}

func TestBarrierReusableAcrossPhases(t *testing.T) {
	e := New()
	b := NewBarrier(2)
	var trace []int
	for w := 0; w < 2; w++ {
		w := w
		e.Go("w", func(p *Proc) {
			for phase := 0; phase < 3; phase++ {
				p.Sleep(Time(10 * (w + 1)))
				b.Wait(p)
				if w == 0 {
					trace = append(trace, phase)
				}
			}
		})
	}
	e.Run()
	if fmt.Sprint(trace) != "[0 1 2]" {
		t.Fatalf("phases = %v", trace)
	}
}

func TestBarrierSingleProcNeverBlocks(t *testing.T) {
	e := New()
	b := NewBarrier(1)
	done := false
	e.Go("solo", func(p *Proc) {
		for i := 0; i < 5; i++ {
			b.Wait(p)
		}
		done = true
	})
	e.Run()
	if !done {
		t.Fatal("single-proc barrier blocked")
	}
}

func TestBarrierZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBarrier(0)
}

func TestRunShutsDownParkedDaemons(t *testing.T) {
	before := runtime.NumGoroutine()
	for k := 0; k < 10; k++ {
		e := New()
		var w Waiter
		e.GoDaemon("sleeper", func(p *Proc) {
			for {
				p.Sleep(1000)
			}
		})
		e.GoDaemon("waiter", func(p *Proc) { w.Wait(p) })
		e.Go("worker", func(p *Proc) { p.Sleep(10); w.Wake(p.Now()) })
		e.Run()
	}
	// Give exiting goroutines a beat, then verify no accumulation.
	for i := 0; i < 100 && runtime.NumGoroutine() > before+2; i++ {
		runtime.Gosched()
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutines leaked across runs: %d -> %d", before, g)
	}
}
