package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval recorded by the benchmark around a call into
// the program: a name, when it started and ended, its own id and the id of
// the span that caused it (0 for a root).
type span struct {
	ID     int
	Parent int
	Name   string
	Tid    int   // timeline row: 0 is the runner, load generators take 1..n
	Start  int64 // ns since the recorder's epoch
	End    int64
}

// spanRec keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced repetitions run: every method is safe
// on nil, so call sites need no tracing-on branch of their own.
type spanRec struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanRec() *spanRec {
	return &spanRec{epoch: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span and returns its id; end closes it.
func (r *spanRec) begin(name string, parent, tid int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Tid: tid, Start: now, End: now})
	return len(r.spans)
}

func (r *spanRec) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records an already-measured interval (the sampled wire requests time
// themselves and report afterwards, keeping the lock off their fast path).
func (r *spanRec) add(name string, parent, tid int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name, Tid: tid,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	return len(r.spans)
}

// selfTimes gives each span's self time: its duration minus the part of it
// its children cover. Children are clipped to the parent and their union is
// taken, so overlapping children (two lanes under one phase) are not
// subtracted twice and a child that outlives its parent only counts for
// the part inside it.
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ a, b int64 }
	kids := make(map[int][]iv)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		a, b := max(s.Start, p.Start), min(s.End, p.End)
		if b > a {
			kids[p.ID] = append(kids[p.ID], iv{a, b})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, hi int64
		hi = s.Start
		for _, v := range ivs {
			if v.b <= hi {
				continue
			}
			covered += v.b - max(v.a, hi)
			hi = v.b
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// traceEvent is one Chrome/Perfetto "complete" event (ph X) or a metadata
// record naming a timeline row (ph M).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace writes the spans as a Chrome trace-event file that
// ui.perfetto.dev and chrome://tracing load directly. Each event's args
// carry the span id, its parent's id and the computed self time.
func (r *spanRec) writeTrace(path, workload string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	self := selfTimes(spans)
	tids := map[int]bool{}
	events := make([]traceEvent, 0, len(spans)+8)
	for _, s := range spans {
		tids[s.Tid] = true
		events = append(events, traceEvent{
			Name: s.Name, Cat: workload, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Tid,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "self_us": float64(self[s.ID]) / 1e3},
		})
	}
	for tid := range tids {
		name := "runner"
		if tid > 0 {
			name = fmt.Sprintf("generator %d", tid)
		}
		events = append(events, traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": name}})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
