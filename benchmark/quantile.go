package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs
// using the exclusive method Python's statistics.quantiles(n=4) uses, so a
// spread computed here matches the one the driver computes over its runs.
// One sample is its own median with no spread.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		// position in 1-based ranks, clamped to the sample
		pos := p * float64(n+1)
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		switch {
		case lo < 1:
			return s[0]
		case lo >= n:
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentileSorted is the nearest-rank percentile of an ascending slice.
func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(float64(len(s)) * p / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// sample is one reported number: the median of its per-repetition values
// with their quartiles, or a single pooled value when N counts raw
// observations (latency samples) rather than repetitions.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// iqr is the quartile spread of the sample (0 for a single observation).
func (s sample) iqr() float64 { return s.Q3 - s.Q1 }
