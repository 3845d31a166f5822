package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// nested: child 2 holds grandchild 3
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "grandchild", Start: 15, End: 25},
		// two children overlapping each other: [50,70) and [60,80) cover 30
		{ID: 4, Parent: 1, Name: "lane a", Start: 50, End: 70},
		{ID: 5, Parent: 1, Name: "lane b", Start: 60, End: 80},
		// a child that outlives its parent counts only for the part inside
		{ID: 6, Parent: 1, Name: "late", Start: 90, End: 130},
		// a child wholly inside a sibling adds nothing
		{ID: 7, Parent: 1, Name: "inside", Start: 62, End: 68},
		// a root of its own
		{ID: 8, Name: "other root", Start: 200, End: 210},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - (30 + 30 + 10), // child, lanes' union, late clipped to [90,100)
		2: 30 - 10,
		3: 10,
		4: 20,
		5: 20,
		6: 40,
		7: 6,
		8: 10,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *spanRec
	id := r.begin("x", 0, 0)
	r.end(id)
	if id != 0 || r.add("x", 0, 0, time.Now(), time.Now()) != 0 {
		t.Fatal("a nil recorder recorded")
	}
	var tr *tracer
	tr.end(tr.begin("y"))
	if err := tr.profileStart(); err != nil {
		t.Fatal(err)
	}
	if err := tr.profileStop(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteTrace(t *testing.T) {
	r := newSpanRec()
	root := r.begin("rep", 0, 0)
	child := r.begin("phase", root, 1)
	r.end(child)
	r.end(root)
	path := filepath.Join(t.TempDir(), "w.trace.json")
	if err := r.writeTrace(path, "w"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   float64
			Dur  float64
			Tid  int
			Args map[string]any
		}
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for i, e := range doc.TraceEvents {
		byName[e.Name] = i
	}
	phase, rep := doc.TraceEvents[byName["phase"]], doc.TraceEvents[byName["rep"]]
	if phase.Ph != "X" || phase.Tid != 1 || phase.Args["parent"] != rep.Args["id"] || rep.Args["parent"] != float64(0) {
		t.Errorf("phase %+v rep %+v", phase, rep)
	}
	if phase.Ts < rep.Ts || phase.Ts+phase.Dur > rep.Ts+rep.Dur+1e-9 {
		t.Errorf("child [%v,+%v) is not inside its parent [%v,+%v)", phase.Ts, phase.Dur, rep.Ts, rep.Dur)
	}
	if _, ok := rep.Args["self_us"]; !ok {
		t.Error("no self time on the root")
	}
	if _, ok := byName["thread_name"]; !ok {
		t.Error("no timeline row names")
	}
}
