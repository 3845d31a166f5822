// Command tracetool records a workload's Perfetto timeline, validates it,
// summarises its fault stream, and merges control-plane journals into it.
// A timeline is the flight recorder's one file format (internal/telemetry);
// to compare prefetchers, record one timeline per -prefetch setting — a
// recorded fault stream is already filtered by its run's prefetcher and
// cache, so it is not the access stream and cannot be replayed fairly.
//
//	tracetool timeline -workload quicksort -prefetch leap -out qs.json
//	tracetool timeline -check qs.json
//	tracetool stats    -top 20 qs.json
//	tracetool stats    -by-core qs.json
//	tracetool events   journal.jsonl -type slo_alert,breaker_trip
//	tracetool events   journal.jsonl -merge timeline.json -out merged.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"dilos/internal/core"
	"dilos/internal/fabric"
	"dilos/internal/prefetch"
	"dilos/internal/redis"
	"dilos/internal/sim"
	"dilos/internal/telemetry"
	"dilos/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "stats":
		statsCmd(os.Args[2:])
	case "timeline":
		timeline(os.Args[2:])
	case "events":
		eventsCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: tracetool timeline|stats|events [flags]")
	os.Exit(2)
}

// launchWorkload starts the named workload app on sys.
func launchWorkload(sys *core.System, workload string, pages uint64) {
	sys.Launch("app", 0, func(sp *core.DDCProc) {
		switch workload {
		case "seqread":
			base, _ := sys.MmapDDC(pages)
			workloads.SeqRead(sp, base, pages)
		case "quicksort":
			n := pages * 4096 / 8
			base, _ := sys.MmapDDC(pages + 1)
			workloads.FillRandomU64(sp, base, n, 1)
			workloads.Quicksort(sp, base, n)
		case "redis-get":
			srv := redis.NewServer(sp)
			keys := int(pages) / 2
			redis.PopulateGET(srv, keys, redis.SizeFixed(4096))
			redis.RunGET(sp, srv, keys, keys*2, redis.SizeFixed(4096), 1)
		default:
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", workload)
			os.Exit(2)
		}
	})
}

// faultEvent is one fault-track event of a timeline: a major or minor
// fault span, or a prefetch-hit marker.
type faultEvent struct {
	ts   float64 // µs
	core int
	kind string // major_fault | minor_fault | prefetch_hit
	page int64
}

// loadFaults reads the fault-track events of a Perfetto timeline written
// by tracetool timeline, ddcrun -trace-out or dilosbench -trace-out: the
// major_fault, minor_fault and prefetch_hit events on the fault/core<N>
// tracks, ordered by time (ties by core), and how many spans those tracks
// dropped to ring wrap (their thread_name args.dropped).
func loadFaults(path string) ([]faultEvent, int64) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Name string  `json:"name"`
			Args struct {
				Name    string `json:"name"`
				Page    *int64 `json:"page"`
				Dropped int64  `json:"dropped"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
		os.Exit(1)
	}
	coreOf := map[int]int{} // tid → core, fault tracks only
	var dropped int64
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" || ev.Name != "thread_name" {
			continue
		}
		if n, ok := strings.CutPrefix(ev.Args.Name, "fault/core"); ok {
			if c, err := strconv.Atoi(n); err == nil {
				coreOf[ev.Tid] = c
				dropped += ev.Args.Dropped
			}
		}
	}
	var events []faultEvent
	for _, ev := range doc.TraceEvents {
		c, ok := coreOf[ev.Tid]
		if !ok || ev.Ph != "X" || ev.Args.Page == nil {
			continue
		}
		switch ev.Name {
		case "major_fault", "minor_fault", "prefetch_hit":
			events = append(events, faultEvent{ts: ev.Ts, core: c, kind: ev.Name, page: *ev.Args.Page})
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].ts != events[j].ts {
			return events[i].ts < events[j].ts
		}
		return events[i].core < events[j].core
	})
	return events, dropped
}

// droppedNote is the line stats prints when the fault tracks lost spans to
// ring wrap, or "" when they kept every span.
func droppedNote(dropped int64) string {
	if dropped == 0 {
		return ""
	}
	return fmt.Sprintf("  fault tracks dropped %d spans to ring wrap: every count below is a lower bound\n", dropped)
}

// kindCounts tallies fault events by kind.
type kindCounts struct{ major, minor, hit int }

func (k *kindCounts) add(kind string) {
	switch kind {
	case "major_fault":
		k.major++
	case "minor_fault":
		k.minor++
	case "prefetch_hit":
		k.hit++
	}
}

// faultSummary is the headline of a fault stream: counts by kind,
// distinct pages, and the page-stride shape a prefetcher would see.
type faultSummary struct {
	kindCounts
	pages       int
	transitions int
	seqFraction float64 // share of transitions with |stride| == 1
	topStride   int64   // most common stride (smallest on ties)
	topFraction float64
}

func summarize(events []faultEvent) faultSummary {
	var sum faultSummary
	pages := map[int64]bool{}
	strides := map[int64]int{}
	seq := 0
	for i, e := range events {
		sum.add(e.kind)
		pages[e.page] = true
		if i > 0 {
			d := e.page - events[i-1].page
			strides[d]++
			if d == 1 || d == -1 {
				seq++
			}
		}
	}
	sum.pages = len(pages)
	if sum.transitions = len(events) - 1; sum.transitions > 0 {
		bestN := 0
		for d, c := range strides {
			if c > bestN || (c == bestN && d < sum.topStride) {
				sum.topStride, bestN = d, c
			}
		}
		sum.seqFraction = float64(seq) / float64(sum.transitions)
		sum.topFraction = float64(bestN) / float64(sum.transitions)
	}
	return sum
}

// statsCmd summarises the fault stream of a timeline and ranks its
// hottest pages, or with -by-core breaks the mix down per faulting core.
func statsCmd(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	top := fs.Int("top", 10, "how many hottest pages to list")
	byCore := fs.Bool("by-core", false, "break events down per faulting core")
	fs.Parse(args)
	if fs.NArg() < 1 {
		usage()
	}
	path := fs.Arg(0)
	events, dropped := loadFaults(path)
	if *byCore {
		statsByCore(path, events)
		fmt.Print(droppedNote(dropped))
		return
	}
	sum := summarize(events)
	fmt.Printf("%s: %d fault events over %d pages\n", path, len(events), sum.pages)
	fmt.Print(droppedNote(dropped))
	fmt.Printf("  major=%d minor=%d hit=%d\n", sum.major, sum.minor, sum.hit)
	if sum.transitions > 0 {
		fmt.Printf("  sequential transitions: %.1f%%; top stride %d (%.1f%%)\n",
			100*sum.seqFraction, sum.topStride, 100*sum.topFraction)
	}

	type pageCount struct {
		page  int64
		total int
		kindCounts
	}
	byPage := map[int64]*pageCount{}
	for _, e := range events {
		pc := byPage[e.page]
		if pc == nil {
			pc = &pageCount{page: e.page}
			byPage[e.page] = pc
		}
		pc.total++
		pc.add(e.kind)
	}
	ranked := make([]*pageCount, 0, len(byPage))
	for _, pc := range byPage {
		ranked = append(ranked, pc)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].total != ranked[j].total {
			return ranked[i].total > ranked[j].total
		}
		return ranked[i].page < ranked[j].page
	})
	if *top < len(ranked) {
		ranked = ranked[:*top]
	}
	fmt.Printf("  top %d pages:\n", len(ranked))
	fmt.Printf("  %4s %10s %8s %8s %8s %8s %7s\n", "rank", "page", "events", "major", "minor", "hit", "share")
	for i, pc := range ranked {
		fmt.Printf("  %4d %10d %8d %8d %8d %8d %6.2f%%\n",
			i+1, pc.page, pc.total, pc.major, pc.minor, pc.hit, 100*float64(pc.total)/float64(len(events)))
	}
}

// statsByCore prints the per-core fault breakdown of a timeline: how many
// events each faulting core produced by kind, how many distinct pages it
// touched, and its share of the whole — the per-core view that shows
// whether fault load is balanced across the sharded handlers.
func statsByCore(path string, events []faultEvent) {
	type coreCount struct {
		core  int
		total int
		kindCounts
		pages map[int64]bool
	}
	byCore := map[int]*coreCount{}
	for _, e := range events {
		cc := byCore[e.core]
		if cc == nil {
			cc = &coreCount{core: e.core, pages: map[int64]bool{}}
			byCore[e.core] = cc
		}
		cc.total++
		cc.pages[e.page] = true
		cc.add(e.kind)
	}
	ranked := make([]*coreCount, 0, len(byCore))
	for _, cc := range byCore {
		ranked = append(ranked, cc)
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].core < ranked[j].core })
	fmt.Printf("%s: %d fault events across %d cores\n", path, len(events), len(ranked))
	fmt.Printf("  %6s %8s %8s %8s %8s %8s %7s\n",
		"core", "events", "major", "minor", "hit", "pages", "share")
	for _, cc := range ranked {
		fmt.Printf("  %6d %8d %8d %8d %8d %8d %6.2f%%\n",
			cc.core, cc.total, cc.major, cc.minor, cc.hit,
			len(cc.pages), 100*float64(cc.total)/float64(len(events)))
	}
}

// journalEvent is one parsed line of a control-plane event journal
// (internal/obs JSONL — ddcrun -journal-out, or a scraped /journalz page).
type journalEvent struct {
	At    int64
	Type  string
	Attrs map[string]json.RawMessage // everything but at_ns/type
}

// loadJournal parses a JSONL journal file.
func loadJournal(path string) []journalEvent {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	var events []journalEvent
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal([]byte(text), &raw); err != nil {
			fmt.Fprintf(os.Stderr, "%s:%d: %v\n", path, line, err)
			os.Exit(1)
		}
		var e journalEvent
		if err := json.Unmarshal(raw["at_ns"], &e.At); err != nil {
			fmt.Fprintf(os.Stderr, "%s:%d: bad at_ns: %v\n", path, line, err)
			os.Exit(1)
		}
		if err := json.Unmarshal(raw["type"], &e.Type); err != nil {
			fmt.Fprintf(os.Stderr, "%s:%d: bad type: %v\n", path, line, err)
			os.Exit(1)
		}
		delete(raw, "at_ns")
		delete(raw, "type")
		e.Attrs = raw
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return events
}

// eventsCmd filters a control-plane event journal and either prints it or
// merges it into an existing Perfetto timeline as instant markers, so the
// "what happened" (breaker trips, drains, steals, SLO alert edges) lines
// up against the "what it cost" (the span tracks).
func eventsCmd(args []string) {
	fs := flag.NewFlagSet("events", flag.ExitOnError)
	typeFilter := fs.String("type", "", "comma list of event types to keep (empty = all)")
	from := fs.Duration("from", 0, "drop events before this virtual time")
	to := fs.Duration("to", 0, "drop events at or after this virtual time (0 = no bound)")
	merge := fs.String("merge", "", "existing Perfetto/Chrome trace JSON to merge the filtered events into")
	out := fs.String("out", "", "output file for -merge (default: <merge file> in place)")
	if len(args) < 1 {
		usage()
	}
	file := args[0]
	fs.Parse(args[1:])
	events := loadJournal(file)

	keep := map[string]bool{}
	for _, t := range strings.Split(*typeFilter, ",") {
		if t = strings.TrimSpace(t); t != "" {
			keep[t] = true
		}
	}
	filtered := events[:0]
	for _, e := range events {
		if len(keep) > 0 && !keep[e.Type] {
			continue
		}
		if e.At < from.Nanoseconds() {
			continue
		}
		if *to > 0 && e.At >= to.Nanoseconds() {
			continue
		}
		filtered = append(filtered, e)
	}

	if *merge != "" {
		dst := *out
		if dst == "" {
			dst = *merge
		}
		mergeEvents(*merge, dst, filtered)
		fmt.Printf("events: merged %d of %d journal events into %s\n",
			len(filtered), len(events), dst)
		return
	}
	for _, e := range filtered {
		fmt.Printf("%12s  %-16s %s\n", sim.Time(e.At), e.Type, attrString(e.Attrs))
	}
	fmt.Printf("%d of %d events\n", len(filtered), len(events))
}

// attrString renders an event's attributes as sorted key=value pairs.
func attrString(attrs map[string]json.RawMessage) string {
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+string(attrs[k]))
	}
	return strings.Join(parts, " ")
}

// mergeEvents appends the journal events to a Chrome trace as global
// instant markers ("ph":"i") on the process track, preserving everything
// already in the file.
func mergeEvents(tracePath, outPath string, events []journalEvent) {
	data, err := os.ReadFile(tracePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var doc struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tracePath, err)
		os.Exit(1)
	}
	for _, e := range events {
		args, err := json.Marshal(e.Attrs) // map keys marshal sorted
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ev := fmt.Sprintf(`{"ph":"i","pid":0,"tid":0,"ts":%d.%03d,"s":"g","name":%q,"args":%s}`,
			e.At/1000, e.At%1000, e.Type, args)
		doc.TraceEvents = append(doc.TraceEvents, json.RawMessage(ev))
	}
	merged, err := json.Marshal(doc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile(outPath, merged, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// timeline either records a live run into a Perfetto/Chrome trace JSON, or
// with -check validates a previously written file against the schema the
// writer promises.
func timeline(args []string) {
	fs := flag.NewFlagSet("timeline", flag.ExitOnError)
	workload := fs.String("workload", "seqread", "seqread | quicksort | redis-get")
	out := fs.String("out", "timeline.json", "output Perfetto/Chrome trace JSON")
	pages := fs.Uint64("pages", 4096, "working-set pages")
	cache := fs.Float64("cache", 0.125, "local-memory fraction")
	pf := fs.String("prefetch", "readahead", "none | readahead | trend | leap")
	sample := fs.Duration("sample-interval", 50*time.Microsecond,
		"virtual-time gauge sampling interval (0 disables counter tracks)")
	check := fs.String("check", "", "validate an existing trace file instead of running a workload")
	fs.Parse(args)

	if *check != "" {
		f, err := os.Open(*check)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		sum, err := telemetry.Validate(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", *check, err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid Chrome trace — %d events (%d meta, %d spans, %d counters) on %d tracks, horizon %.3fms\n",
			*check, sum.Events, sum.Meta, sum.Spans, sum.Counters, sum.Tracks, float64(sum.MaxTsNs)/1e6)
		return
	}

	var prefetcher prefetch.Prefetcher
	switch *pf {
	case "none":
	case "readahead":
		prefetcher = prefetch.NewReadahead(0)
	case "trend":
		prefetcher = prefetch.NewTrend()
	case "leap":
		prefetcher = prefetch.NewLeap()
	default:
		fmt.Fprintf(os.Stderr, "unknown prefetcher %q\n", *pf)
		os.Exit(2)
	}
	frames := int(float64(*pages) * *cache)
	if frames < 96 {
		frames = 96
	}
	rec := telemetry.NewRecorder(0)
	eng := sim.New()
	sys := core.New(eng, core.Config{
		CacheFrames: frames, Cores: 2, RemoteBytes: *pages*4096 + (128 << 20),
		Fabric: fabric.DefaultParams(), Prefetcher: prefetcher,
		Tel: rec, SampleEvery: sim.Time((*sample).Nanoseconds()),
	})
	sys.Start()
	launchWorkload(sys, *workload, *pages)
	eng.Run()

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	_, sam := sys.Telemetry()
	if err := telemetry.WritePerfetto(f, rec, sam); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("timeline: wrote %s from %s (%d spans, %d dropped)\n",
		*out, *workload, rec.Len(), rec.DroppedTotal())
}
