package telemetry

import (
	"dilos/internal/sim"
	"dilos/internal/stats"
)

// FaultAnatomy reduces every major-fault span in a recording to a
// per-stage latency table — the paper's Figure 6 breakdown, with tails.
// Stage means are taken over all faults (a stage that did not occur
// contributes zero), so the stage means sum to the total mean and the
// table reads as an attribution.

// StageStat is one stage row of the anatomy.
type StageStat struct {
	Stage  string `json:"stage"`
	MeanNs int64  `json:"mean_ns"`
	P99Ns  int64  `json:"p99_ns"`
}

// Anatomy is the per-stage decomposition of a recording's major faults.
type Anatomy struct {
	Faults  int         `json:"faults"`
	Dropped int64       `json:"dropped,omitempty"` // faults lost to ring wrap
	MeanNs  int64       `json:"mean_ns"`
	P99Ns   int64       `json:"p99_ns"`
	Stages  []StageStat `json:"stages"` // one per Stage, canonical order
}

// FaultAnatomy computes the anatomy of the KindMajorFault spans: counts
// and means from the recorder's Totals (exact whatever the ring kept),
// p99s from the spans the rings still hold.
func FaultAnatomy(rec *Recorder) Anatomy {
	total := stats.NewHistogram("total")
	var stage [NumStages]*stats.Histogram
	for st := Stage(0); st < NumStages; st++ {
		stage[st] = stats.NewHistogram(StageNames[st])
	}
	var dropped int64
	for id := range rec.Tracks() {
		sawFault := false
		for _, sp := range rec.Spans(id) {
			if sp.Kind != KindMajorFault {
				continue
			}
			sawFault = true
			total.Record(sp.Dur())
			for st := Stage(0); st < NumStages; st++ {
				stage[st].Record(sp.Stages[st])
			}
		}
		if sawFault {
			dropped += rec.Dropped(id)
		}
	}
	tot := rec.Totals(KindMajorFault)
	a := Anatomy{
		Faults:  int(tot.N),
		Dropped: dropped,
		P99Ns:   int64(total.P99()),
	}
	if tot.N > 0 {
		a.MeanNs = int64(tot.Dur / sim.Time(tot.N))
	}
	for st := Stage(0); st < NumStages; st++ {
		a.Stages = append(a.Stages, StageStat{
			Stage:  StageNames[st],
			MeanNs: int64(tot.Mean(st)),
			P99Ns:  int64(stage[st].P99()),
		})
	}
	return a
}

// Stage looks up a stage row by name (zero row if absent).
func (a Anatomy) Stage(name string) StageStat {
	for _, s := range a.Stages {
		if s.Stage == name {
			return s
		}
	}
	return StageStat{}
}
