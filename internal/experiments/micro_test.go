package experiments

import (
	"reflect"
	"testing"

	"dilos/internal/stats"
)

// Every -stats block the sequential artifacts emit names a distinct
// simulation, so no two blocks of one invocation share a label.
func TestSeqStatsLabelsUnique(t *testing.T) {
	r := runAt(tiny())
	seen := map[string]bool{}
	r.Collect = func(label string, _ stats.Snapshot) {
		if seen[label] {
			t.Errorf("two runs collected under %q", label)
		}
		seen[label] = true
	}
	Tab1(r)
	Tab2(r)
	Fig1(r)
	Fig6(r)
	Tab3(r)
}

// Table 2's eight sweeps, Figure 6's three and Table 3's four are nine
// distinct simulations; a run value executes each once.
func TestSeqSweepsSimulateOnce(t *testing.T) {
	r := runAt(tiny())
	sims := 0
	r.Collect = func(string, stats.Snapshot) { sims++ }
	Tab2(r)
	Fig6(r)
	Tab3(r)
	if sims != 9 {
		t.Fatalf("tab2+fig6+tab3 executed %d simulations, want 9", sims)
	}
}

// A run value shared across options recalls only sweeps simulated under
// the same options: its rows equal those of a fresh run value, and the
// Batch and Cores variants differ from the defaults. A memo key that
// forgot an option would hand a variant the defaults' rows.
func TestSeqMemoKeysOnOptions(t *testing.T) {
	type rows struct {
		tab2 []Tab2Row
		fig6 []BreakdownRow
	}
	variants := []struct {
		name string
		set  func(*Options)
	}{
		{"defaults", func(*Options) {}},
		{"batch", func(o *Options) { o.Batch = true }},
		{"cores2", func(o *Options) { o.Cores = 2 }},
	}
	shared := runAt(tiny())
	var base rows
	for i, v := range variants {
		o := DefaultOptions()
		o.Scale = tiny()
		v.set(&o)
		shared.Options = o
		got := rows{Tab2(shared), Fig6(shared)}
		if want := (rows{Tab2(NewRun(o)), Fig6(NewRun(o))}); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: shared run value gave %+v, a fresh one %+v", v.name, got, want)
		}
		if i == 0 {
			base = got
		} else if reflect.DeepEqual(got, base) {
			t.Errorf("%s: rows equal the defaults'", v.name)
		}
	}
}
