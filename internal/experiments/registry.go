// Experiment registry: every artifact self-registers an Entry here, and
// cmd/dilosbench dispatches purely off the registry — no hand-maintained
// id list in the command. Registration happens in init functions, whose
// order Go fixes by file name, so Entries() imposes a deterministic order
// of its own: classic artifacts (figures, tables, ablations) keep their
// registration order, and "extN" extensions sort by numeric suffix. The
// -exp list output and flag help therefore never depend on which file
// registered first.
package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Entry is one runnable experiment.
type Entry struct {
	// ID is the -exp name ("fig7a", "ext12", ...).
	ID string
	// Desc is the one-line -list description.
	Desc string
	// CoresAware marks experiments that consume the -cores sweep
	// internally (ext10); the driver must not loop them per core count.
	CoresAware bool
	// Rows computes the experiment's structured rows; -json emits them.
	Rows func(r *Run) any
	// Print renders a value Rows returned as the paper-format tables.
	Print func(rows any)
}

var registry []Entry

// Register adds an experiment: rows computes its structured rows once and
// print renders those same rows as text. Duplicate ids panic at init time
// — two files claiming one id is a programming error, not a runtime
// condition.
func Register[T any](id, desc string, coresAware bool, rows func(*Run) T, print func(T)) {
	if _, ok := Lookup(id); ok {
		panic(fmt.Sprintf("experiments: duplicate registration of %q", id))
	}
	registry = append(registry, Entry{
		ID: id, Desc: desc, CoresAware: coresAware,
		Rows:  func(r *Run) any { return rows(r) },
		Print: func(v any) { print(v.(T)) },
	})
}

// Lookup finds an experiment by id.
func Lookup(id string) (Entry, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Entry{}, false
}

// extNum returns the numeric suffix of an "extN" id, or -1.
func extNum(id string) int {
	rest, ok := strings.CutPrefix(id, "ext")
	if !ok {
		return -1
	}
	n, err := strconv.Atoi(rest)
	if err != nil {
		return -1
	}
	return n
}

// Entries returns every experiment in the canonical order: classic
// artifacts in registration order, then extensions by number. The sort is
// stable, so registration order breaks ties.
func Entries() []Entry {
	out := make([]Entry, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool {
		ni, nj := extNum(out[i].ID), extNum(out[j].ID)
		if (ni >= 0) != (nj >= 0) {
			return nj >= 0 // classic artifacts before extensions
		}
		if ni >= 0 {
			return ni < nj
		}
		return false // classics keep registration order
	})
	return out
}
