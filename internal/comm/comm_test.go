package comm

import (
	"testing"
	"testing/quick"

	"dilos/internal/fabric"
	"dilos/internal/memnode"
)

func TestHubQueueAssignment(t *testing.T) {
	node := memnode.New(8<<20, 7)
	link := fabric.NewLink(node, fabric.DefaultParams())
	h := NewHub(link, 3, node.ProtKey)
	if h.Cores() != 3 {
		t.Fatalf("cores = %d", h.Cores())
	}
	seen := map[*fabric.QP]bool{}
	for c := 0; c < 3; c++ {
		for m := Module(0); m < NumModules; m++ {
			qp := h.QP(c, m)
			if qp == nil {
				t.Fatalf("nil QP for core %d module %v", c, m)
			}
			if seen[qp] {
				t.Fatalf("QP shared between (core,module) pairs — not shared-nothing")
			}
			seen[qp] = true
		}
	}
	if len(seen) != 3*int(NumModules) {
		t.Fatalf("expected %d distinct QPs, got %d", 3*int(NumModules), len(seen))
	}
}

func TestNoHeadOfLineBlockingAcrossModules(t *testing.T) {
	node := memnode.New(8<<20, 7)
	link := fabric.NewLink(node, fabric.DefaultParams())
	h := NewHub(link, 1, node.ProtKey)
	off, _ := node.AllocRange(1)

	// §4.5's head-of-line scenario: a large low-priority transfer (a
	// 16 KiB guide subpage batch) is in flight. A tiny fault-path probe
	// behind it on the SAME queue is FIFO-ordered after it; on its own
	// queue it overtakes (it still shares wire occupancy, but not
	// completion ordering).
	pf := h.QP(0, ModPrefetch)
	big := pf.Read(0, off, make([]byte, 16384))
	shared := pf.Read(1, off, make([]byte, 8))
	own := h.QP(0, ModFault).Read(1, off, make([]byte, 8))
	if shared.CompleteAt < big.CompleteAt {
		t.Fatal("shared-queue op escaped its FIFO — model broken")
	}
	if own.CompleteAt >= shared.CompleteAt {
		t.Fatalf("separate QP gave no head-of-line relief: own=%v shared=%v",
			own.CompleteAt, shared.CompleteAt)
	}
}

func TestModuleString(t *testing.T) {
	names := map[Module]string{
		ModFault: "fault", ModPrefetch: "prefetch", ModCleaner: "cleaner",
		ModReclaim: "reclaim", ModGuide: "guide",
	}
	for m, want := range names {
		if m.String() != want {
			t.Fatalf("%d.String() = %q", m, m.String())
		}
	}
}

// TestHubDistinctQPsProperty checks the shared-nothing invariant over
// arbitrary core counts: a per-module hub hands every (core, module) pair
// its own queue pair, and the same pair always resolves to the same QP.
func TestHubDistinctQPsProperty(t *testing.T) {
	prop := func(coreSeed uint8) bool {
		cores := int(coreSeed)%8 + 1
		node := memnode.New(8<<20, 7)
		link := fabric.NewLink(node, fabric.DefaultParams())
		h := NewHub(link, cores, node.ProtKey)
		if h.Cores() != cores {
			return false
		}
		seen := map[*fabric.QP]bool{}
		for c := 0; c < cores; c++ {
			for m := Module(0); m < NumModules; m++ {
				qp := h.QP(c, m)
				if qp == nil || seen[qp] || h.QP(c, m) != qp {
					return false
				}
				seen[qp] = true
			}
		}
		return len(seen) == cores*int(NumModules)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSharedHubAliasesProperty checks the ablation hub's invariant: all
// modules on one core alias a single queue pair, and distinct cores still
// get distinct queue pairs.
func TestSharedHubAliasesProperty(t *testing.T) {
	prop := func(coreSeed uint8) bool {
		cores := int(coreSeed)%8 + 1
		node := memnode.New(8<<20, 7)
		link := fabric.NewLink(node, fabric.DefaultParams())
		h := NewSharedHub(link, cores, node.ProtKey)
		perCore := map[*fabric.QP]bool{}
		for c := 0; c < cores; c++ {
			qp := h.QP(c, ModFault)
			if qp == nil || perCore[qp] {
				return false
			}
			perCore[qp] = true
			for m := Module(0); m < NumModules; m++ {
				if h.QP(c, m) != qp {
					return false
				}
			}
		}
		return len(perCore) == cores
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestModuleStringRoundTrip: every module's name maps back to exactly that
// module, and the out-of-range sentinel aliases none of them.
func TestModuleStringRoundTrip(t *testing.T) {
	byName := map[string]Module{}
	for m := Module(0); m < NumModules; m++ {
		if prev, dup := byName[m.String()]; dup {
			t.Fatalf("modules %v and %v share the name %q", prev, m, m.String())
		}
		byName[m.String()] = m
	}
	if m, ok := byName[NumModules.String()]; ok {
		t.Fatalf("the out-of-range sentinel is named like module %v", m)
	}
}
