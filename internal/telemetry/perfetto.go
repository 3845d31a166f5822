package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"dilos/internal/sim"
)

// This file serialises a recording as Chrome trace-event JSON — the
// format Perfetto (ui.perfetto.dev) and chrome://tracing both load.
// Each recorder track becomes one thread row ("M"/thread_name metadata,
// whose args carry the track's ring-wrap drop count, + "X" complete
// events); fault spans additionally emit one child slice
// per stage, laid out cumulatively, so a major fault renders as a bar
// with its exception/lookup/issue/guide/wait/map segments nested under
// it. Sampler points become "C" counter events, one series per gauge.
//
// All numbers are formatted from integer nanoseconds with a fixed
// %d.%03d microsecond layout: the output is a pure function of the
// recording, so same-seed runs serialise to byte-identical files — a
// property the determinism tests assert.

// usStr renders virtual nanoseconds as trace-event microseconds with a
// deterministic fixed-point layout.
func usStr(ns sim.Time) string {
	if ns < 0 {
		ns = 0
	}
	return fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
}

// argName maps a span kind to the name of its Arg in the export.
func argName(k Kind) string {
	switch k {
	case KindRead, KindWrite:
		return "bytes"
	case KindClean, KindReclaim:
		return "pages"
	default:
		return "page"
	}
}

// WritePerfetto serialises the recording (and, when non-nil, the
// sampler's gauge series) as Chrome trace-event JSON.
func WritePerfetto(w io.Writer, rec *Recorder, sam *Sampler) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	first := true
	emit := func(line string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(line)
	}
	emit(`{"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"dilos-sim"}}`)
	names := rec.Tracks()
	for id, name := range names {
		// dropped counts the spans the track's ring overwrote, so a reader
		// can tell a complete track from one that lost its oldest spans.
		emit(fmt.Sprintf(`{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":%q,"dropped":%d}}`,
			id+1, name, rec.Dropped(id)))
	}
	for id := range names {
		for _, sp := range rec.Spans(id) {
			if sp.Kind == KindSteal {
				// Steals render as instant markers on the thief's track
				// with the victim shard in args — the "who raided whom"
				// annotation the shard timeline was missing.
				emit(fmt.Sprintf(`{"ph":"i","pid":0,"tid":%d,"ts":%s,"s":"t","name":"steal","args":{"victim_shard":%d}}`,
					id+1, usStr(sp.Start), sp.Arg))
				continue
			}
			emit(fmt.Sprintf(`{"ph":"X","pid":0,"tid":%d,"ts":%s,"dur":%s,"name":%q,"args":{%q:%d}}`,
				id+1, usStr(sp.Start), usStr(sp.Dur()), sp.Kind.String(), argName(sp.Kind), sp.Arg))
			cursor := sp.Start
			for st := Stage(0); st < NumStages; st++ {
				d := sp.Stages[st]
				if d <= 0 {
					continue
				}
				emit(fmt.Sprintf(`{"ph":"X","pid":0,"tid":%d,"ts":%s,"dur":%s,"name":%q,"args":{}}`,
					id+1, usStr(cursor), usStr(d), StageNames[st]))
				cursor += d
			}
		}
	}
	if sam != nil {
		for _, pt := range sam.Points() {
			for _, g := range pt.Gauges {
				emit(fmt.Sprintf(`{"ph":"C","pid":0,"tid":0,"ts":%s,"name":%q,"args":{"value":%d}}`,
					usStr(pt.At), g.Name, g.Last))
			}
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// Summary describes a validated trace file.
type Summary struct {
	Events   int `json:"events"`
	Meta     int `json:"meta"`
	Spans    int `json:"spans"`
	Counters int `json:"counters"`
	Instants int `json:"instants"`
	Tracks   int `json:"tracks"`
	// MaxTsNs is the latest event end, i.e. the timeline's extent.
	MaxTsNs int64 `json:"max_ts_ns"`
}

// Validate parses trace-event JSON and checks it against the schema
// Perfetto requires: a traceEvents array whose entries carry a phase in
// {M, X, C}, a name, and the phase's mandatory fields ("X" needs
// ts/dur/tid with dur >= 0, "C" needs ts and a numeric args value, "M"
// needs an args name, and a thread_name's args dropped, when present, is
// a non-negative integer). Returns counts for reporting. CI runs this
// over the ext6 export.
func Validate(r io.Reader) (Summary, error) {
	var doc struct {
		TraceEvents []struct {
			Ph   string                     `json:"ph"`
			Pid  *int                       `json:"pid"`
			Tid  *int                       `json:"tid"`
			Ts   *float64                   `json:"ts"`
			Dur  *float64                   `json:"dur"`
			Name string                     `json:"name"`
			Args map[string]json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return Summary{}, fmt.Errorf("telemetry: trace is not valid JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return Summary{}, fmt.Errorf("telemetry: trace has no traceEvents array")
	}
	var s Summary
	tracks := map[int]bool{}
	for i, ev := range doc.TraceEvents {
		s.Events++
		if ev.Name == "" {
			return s, fmt.Errorf("telemetry: event %d has no name", i)
		}
		switch ev.Ph {
		case "M":
			s.Meta++
			if _, ok := ev.Args["name"]; !ok {
				return s, fmt.Errorf("telemetry: metadata event %d (%s) missing args.name", i, ev.Name)
			}
			if ev.Name == "thread_name" {
				if ev.Tid == nil {
					return s, fmt.Errorf("telemetry: thread_name event %d missing tid", i)
				}
				tracks[*ev.Tid] = true
				if raw, ok := ev.Args["dropped"]; ok {
					var n int64
					if json.Unmarshal(raw, &n) != nil || n < 0 {
						return s, fmt.Errorf("telemetry: thread_name event %d has args.dropped %s, want a non-negative integer", i, raw)
					}
				}
			}
		case "X":
			s.Spans++
			if ev.Ts == nil || ev.Dur == nil || ev.Tid == nil {
				return s, fmt.Errorf("telemetry: complete event %d (%s) missing ts/dur/tid", i, ev.Name)
			}
			if *ev.Dur < 0 || *ev.Ts < 0 {
				return s, fmt.Errorf("telemetry: complete event %d (%s) has negative ts/dur", i, ev.Name)
			}
			if end := int64((*ev.Ts + *ev.Dur) * 1000); end > s.MaxTsNs {
				s.MaxTsNs = end
			}
		case "C":
			s.Counters++
			if ev.Ts == nil {
				return s, fmt.Errorf("telemetry: counter event %d (%s) missing ts", i, ev.Name)
			}
			var v float64
			raw, ok := ev.Args["value"]
			if !ok || json.Unmarshal(raw, &v) != nil {
				return s, fmt.Errorf("telemetry: counter event %d (%s) has no numeric args.value", i, ev.Name)
			}
		case "i":
			// Instant markers: shard steals, merged journal events.
			s.Instants++
			if ev.Ts == nil || ev.Tid == nil {
				return s, fmt.Errorf("telemetry: instant event %d (%s) missing ts/tid", i, ev.Name)
			}
			if end := int64(*ev.Ts * 1000); end > s.MaxTsNs {
				s.MaxTsNs = end
			}
		default:
			return s, fmt.Errorf("telemetry: event %d has unsupported phase %q", i, ev.Ph)
		}
	}
	s.Tracks = len(tracks)
	return s, nil
}
