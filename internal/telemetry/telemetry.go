// Package telemetry is the simulation's flight recorder: a low-overhead,
// sim-time span recorder plus a periodic gauge sampler, exported as a
// Chrome-trace/Perfetto timeline. It answers the attribution questions
// aggregate counters cannot — which fault-path stage shrank when batching
// landed, what the cleaner was doing while the free list breathed past
// the watermark — without perturbing the run: emitting a span advances no
// virtual time, performs no yields, and allocates nothing on the hot path.
//
// The recorder is optional everywhere. Instrumented code guards every
// emission behind `if tel != nil`, so a disabled run executes the exact
// instruction stream it did before this package existed.
package telemetry

import (
	"dilos/internal/sim"
)

// Kind classifies a span.
type Kind uint8

const (
	// KindMajorFault is one demand fault that fetched a page from the
	// memory node (or zero-filled it). Carries stage sub-timings.
	KindMajorFault Kind = iota
	// KindMinorFault is a fault resolved locally: a DiLOS fault on an
	// in-flight prefetch, or a Fastswap swap-cache hit.
	KindMinorFault
	// KindPrefetchMap is one prefetched page completing on a per-core
	// mapper daemon: wait for the RDMA op, wake, install the PTE.
	KindPrefetchMap
	// KindClean is one cleaner pass that wrote dirty pages back.
	KindClean
	// KindReclaim is one reclaimer eviction step.
	KindReclaim
	// KindRead is one fabric read op, from issue to completion.
	KindRead
	// KindWrite is one fabric write op, from issue to completion.
	KindWrite
	// KindRetry is one reliable-QP backoff sleep before a retransmit.
	KindRetry
	// KindMigrate is one migration-engine batch: copy a set of replica
	// slots to their new nodes and flip them. Arg carries pages moved.
	KindMigrate
	// KindSteal marks a reclaimer stealing work from another shard: the
	// span sits on the thief's track and Arg carries the victim shard.
	KindSteal
	// KindPrefetchHit is a zero-length marker for an access that found its
	// prefetched page already arrived but not yet mapped (a late-map hit):
	// it lands on the faulting core's track with Arg = page number.
	KindPrefetchHit

	numKinds
)

var kindNames = [numKinds]string{
	"major_fault", "minor_fault", "prefetch_map", "clean", "reclaim",
	"read", "write", "retry", "migrate", "steal", "prefetch_hit",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Stage is one segment of a fault span's latency attribution. Stages are
// laid out in causal order; a span's stage durations are cumulative
// offsets from its start when rendered.
type Stage uint8

const (
	// StageException: hardware exception delivery plus kernel entry.
	StageException Stage = iota
	// StageLookup: PTE walk / swap-cache lookup, bookkeeping, and frame
	// allocation — DiLOS's handler check or Fastswap's swap management.
	StageLookup
	// StageReclaim: direct reclamation performed inside the handler
	// (Fastswap only; DiLOS never reclaims on the fault path).
	StageReclaim
	// StageIssue: CPU spent posting speculative IO — DiLOS's prefetch
	// WQE builds, Fastswap's readahead cluster.
	StageIssue
	// StageGuide: the hidden-window work — hit-tracker PTE scan,
	// prefetcher policy, and the application guide hook.
	StageGuide
	// StageWait: time blocked on the fabric for the demand page.
	StageWait
	// StageWake: completion-to-resume scheduling delay (mapper daemons).
	StageWake
	// StageMap: PTE install and publish.
	StageMap

	NumStages
)

// StageNames are the canonical short names, in causal order.
var StageNames = [NumStages]string{
	"exception", "lookup", "reclaim", "issue", "guide", "wait", "wake", "map",
}

// Span is one recorded interval. It is a plain value — emitting one
// copies it into a preallocated ring, so instrumented hot paths build
// spans on the stack and never allocate.
type Span struct {
	Kind       Kind
	Start, End sim.Time
	// Arg is kind-specific: page number for faults and prefetch maps,
	// bytes for fabric ops, pages for cleaner/reclaimer passes.
	Arg uint64
	// Stages hold per-stage durations (zero = stage absent). Only fault
	// and prefetch-map spans populate them.
	Stages [NumStages]sim.Time
}

// Dur returns the span's total duration.
func (s Span) Dur() sim.Time { return s.End - s.Start }

// track is one bounded ring of spans. The backing slice is allocated to
// full capacity at registration; while the ring is filling, Emit appends
// within capacity, and once full it overwrites the oldest entry — either
// way, no allocation.
type track struct {
	name    string
	spans   []Span
	start   int   // index of the oldest span once the ring has wrapped
	dropped int64 // spans overwritten
	below   int64 // below-threshold spans seen (tail-sampling round robin)
	sampled int64 // spans rejected by the sampling policy
}

// SamplePolicy is tail-based sampling for always-on production mode:
// every span at least Threshold long is retained (the tail is the
// signal), and 1 in KeepEvery of the rest survives as a representative
// baseline. The decision is a counter per track — no PRNG — so sampling
// is as deterministic as everything else. The zero value keeps every
// span (the exact-attribution mode the trace experiments rely on).
type SamplePolicy struct {
	Threshold sim.Time
	// KeepEvery <= 1 keeps every below-threshold span.
	KeepEvery int
}

// Totals are the exact sums over every span of one kind a recorder was
// handed: ring wrap and sampling drop spans, never totals.
type Totals struct {
	N      int64
	Dur    sim.Time
	Stages [NumStages]sim.Time
}

// Mean returns the per-span mean of one stage (0 with no spans).
func (t Totals) Mean(st Stage) sim.Time {
	if t.N == 0 {
		return 0
	}
	return t.Stages[st] / sim.Time(t.N)
}

// Recorder is the flight recorder: a set of named tracks (one per core,
// one per daemon, one per fabric link), each a bounded drop-oldest ring,
// plus per-kind Totals. The simulation is single-threaded by construction
// (procs hand off via the engine), so the recorder is unsynchronised, like
// the stats package.
type Recorder struct {
	perTrack int // 0: totals only, no rings
	tracks   []track
	byName   map[string]int
	policy   SamplePolicy
	totals   [numKinds]Totals
}

// DefaultTrackCap is the per-track ring capacity when NewRecorder is
// given a non-positive one: enough for the tail of any run at ~112 bytes
// a span, small enough to preallocate for every track.
const DefaultTrackCap = 1 << 14

// NewRecorder creates a recorder whose tracks each hold perTrackCap
// spans (DefaultTrackCap if perTrackCap <= 0).
func NewRecorder(perTrackCap int) *Recorder {
	if perTrackCap <= 0 {
		perTrackCap = DefaultTrackCap
	}
	return &Recorder{perTrack: perTrackCap, byName: make(map[string]int)}
}

// NewTotals creates a recorder that keeps only the per-kind Totals: its
// tracks hold no ring, so it allocates nothing per track and Spans is
// always empty.
func NewTotals() *Recorder {
	return &Recorder{byName: make(map[string]int)}
}

// Track registers (or finds) a track by name and returns its id. Call at
// construction time: registration allocates the ring, so that Emit never
// does. Track order is registration order and defines timeline order in
// the export.
func (r *Recorder) Track(name string) int {
	if id, ok := r.byName[name]; ok {
		return id
	}
	r.tracks = append(r.tracks, track{name: name, spans: make([]Span, 0, r.perTrack)})
	id := len(r.tracks) - 1
	r.byName[name] = id
	return id
}

// SetPolicy installs a tail-based sampling policy. Call before the run;
// switching policies mid-recording only affects subsequent emissions.
func (r *Recorder) SetPolicy(p SamplePolicy) { r.policy = p }

// Emit adds a span to its kind's Totals and records it on the given
// track, overwriting the oldest span if the ring is full. Zero allocation,
// zero virtual time. Under an active SamplePolicy, below-threshold spans
// are counted and mostly rejected before touching the ring — the fast
// path of always-on mode.
func (r *Recorder) Emit(tr int, s Span) {
	tot := &r.totals[s.Kind]
	tot.N++
	tot.Dur += s.End - s.Start
	for st, d := range s.Stages {
		tot.Stages[st] += d
	}
	if r.perTrack == 0 {
		return
	}
	t := &r.tracks[tr]
	if r.policy.KeepEvery > 1 && s.End-s.Start < r.policy.Threshold {
		t.below++
		if t.below%int64(r.policy.KeepEvery) != 0 {
			t.sampled++
			return
		}
	}
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, s)
		return
	}
	t.spans[t.start] = s
	t.start++
	if t.start == len(t.spans) {
		t.start = 0
	}
	t.dropped++
}

// Totals returns the sums over every span of kind k emitted so far.
func (r *Recorder) Totals(k Kind) Totals { return r.totals[k] }

// Tracks returns the track names in registration order (track id is the
// index into this slice).
func (r *Recorder) Tracks() []string {
	names := make([]string, len(r.tracks))
	for i := range r.tracks {
		names[i] = r.tracks[i].name
	}
	return names
}

// TrackName returns the name of a track id.
func (r *Recorder) TrackName(id int) string { return r.tracks[id].name }

// Spans returns a copy of the track's spans in arrival order (oldest
// surviving span first).
func (r *Recorder) Spans(id int) []Span {
	t := &r.tracks[id]
	out := make([]Span, 0, len(t.spans))
	out = append(out, t.spans[t.start:]...)
	out = append(out, t.spans[:t.start]...)
	return out
}

// Dropped returns how many spans the track overwrote.
func (r *Recorder) Dropped(id int) int64 { return r.tracks[id].dropped }

// DroppedTotal sums drops across all tracks.
func (r *Recorder) DroppedTotal() int64 {
	var n int64
	for i := range r.tracks {
		n += r.tracks[i].dropped
	}
	return n
}

// SampledOut returns how many spans the sampling policy rejected on a
// track.
func (r *Recorder) SampledOut(id int) int64 { return r.tracks[id].sampled }

// SampledOutTotal sums policy rejections across all tracks.
func (r *Recorder) SampledOutTotal() int64 {
	var n int64
	for i := range r.tracks {
		n += r.tracks[i].sampled
	}
	return n
}

// Len returns the total number of spans currently held.
func (r *Recorder) Len() int {
	n := 0
	for i := range r.tracks {
		n += len(r.tracks[i].spans)
	}
	return n
}
