// Package dataframe is a column-store analytics library in the mould of
// the C++ DataFrame the paper evaluates (Figure 8), with a synthetic
// generator shaped like the New York City taxi-trip data-set the AIFM
// repository ships. The query set mirrors the NYC taxi analysis notebook:
// group-bys over passenger count, range filters over trip distance,
// duration statistics, and a top-k scan — mostly-sequential columnar
// passes with enough irregularity (group-by cells, heap updates) to be
// interesting to a prefetcher.
//
// Columns are accessed through the Col interface, so the same queries run
// over paging systems (SpaceCol — DiLOS/Fastswap, unmodified) and over
// AIFM's remoteable arrays (AIFMCol — the "port" the paper had to write).
package dataframe

import (
	"math/rand"

	"dilos/internal/aifm"
	"dilos/internal/sim"
	"dilos/internal/space"
)

// Col is one u64 column.
type Col interface {
	Get(i uint64) uint64
	Set(i uint64, v uint64)
}

// SpaceCol stores the column at base in a Space.
type SpaceCol struct {
	SP   space.Space
	Base uint64
	N    uint64
}

// Get implements Col.
func (c *SpaceCol) Get(i uint64) uint64 { return c.SP.LoadU64(c.Base + i*8) }

// Set implements Col.
func (c *SpaceCol) Set(i uint64, v uint64) { c.SP.StoreU64(c.Base+i*8, v) }

// AIFMCol stores the column in an AIFM remoteable array.
type AIFMCol struct {
	Arr *aifm.Array
	T   *aifm.Thread
}

// Get implements Col.
func (c *AIFMCol) Get(i uint64) uint64 { return c.Arr.ReadU64(c.T, i) }

// Set implements Col.
func (c *AIFMCol) Set(i uint64, v uint64) { c.Arr.WriteU64(c.T, i, v) }

// Frame is the taxi-trip table.
type Frame struct {
	N          uint64
	PickupTS   Col // seconds
	DropoffTS  Col // seconds
	Passengers Col // 1..6
	DistanceM  Col // metres
	FareCents  Col
	PickupLoc  Col // zone id 0..262
	DropoffLoc Col
}

// NewSpaceFrame allocates all columns of an n-row frame in a Space.
func NewSpaceFrame(sp space.Space, n uint64) *Frame {
	col := func() Col { return &SpaceCol{SP: sp, Base: sp.Malloc(n * 8), N: n} }
	return &Frame{
		N: n, PickupTS: col(), DropoffTS: col(), Passengers: col(),
		DistanceM: col(), FareCents: col(), PickupLoc: col(), DropoffLoc: col(),
	}
}

// NewAIFMFrame allocates all columns as AIFM remoteable arrays.
func NewAIFMFrame(sys *aifm.System, t *aifm.Thread, n uint64) (*Frame, error) {
	col := func() (Col, error) {
		arr, err := sys.NewArray(8, n)
		if err != nil {
			return nil, err
		}
		return &AIFMCol{Arr: arr, T: t}, nil
	}
	f := &Frame{N: n}
	var err error
	for _, dst := range []*Col{&f.PickupTS, &f.DropoffTS, &f.Passengers, &f.DistanceM, &f.FareCents, &f.PickupLoc, &f.DropoffLoc} {
		if *dst, err = col(); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Generate fills the frame with synthetic taxi trips: exponential-ish trip
// distances, fares correlated with distance, timestamps over a month.
func Generate(f *Frame, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const monthSecs = 30 * 24 * 3600
	for i := uint64(0); i < f.N; i++ {
		pickup := uint64(rng.Intn(monthSecs))
		distance := uint64(rng.ExpFloat64() * 3000) // mean 3 km
		if distance > 80_000 {
			distance = 80_000
		}
		speed := 6 + uint64(rng.Intn(10)) // m/s
		duration := distance/speed + uint64(rng.Intn(300))
		fare := 250 + distance/10 + duration/3 // cents
		f.PickupTS.Set(i, pickup)
		f.DropoffTS.Set(i, pickup+duration)
		f.Passengers.Set(i, uint64(1+rng.Intn(6)))
		f.DistanceM.Set(i, distance)
		f.FareCents.Set(i, fare)
		f.PickupLoc.Set(i, uint64(rng.Intn(263)))
		f.DropoffLoc.Set(i, uint64(rng.Intn(263)))
	}
}

// Result carries a query set's outputs (and a checksum the comparisons
// across systems are validated with).
type Result struct {
	TripsPerPassengers [7]uint64
	MeanDistancePerPax [7]uint64
	AvgFareMidRange    uint64 // cents, trips 2–10 km
	MeanDurationSecs   uint64
	DurationVariance   uint64
	Top10Distance      [10]uint64
	Checksum           uint64
	Elapsed            sim.Time
}

// RunTaxiAnalysis executes the five queries over the frame.
func RunTaxiAnalysis(sp interface{ Now() sim.Time }, f *Frame) Result {
	t0 := sp.Now()
	var r Result

	// Q1 + Q2: trips and mean distance grouped by passenger count.
	var distSum [7]uint64
	for i := uint64(0); i < f.N; i++ {
		p := f.Passengers.Get(i)
		if p > 6 {
			p = 6
		}
		r.TripsPerPassengers[p]++
		distSum[p] += f.DistanceM.Get(i)
	}
	for p := range r.MeanDistancePerPax {
		if r.TripsPerPassengers[p] > 0 {
			r.MeanDistancePerPax[p] = distSum[p] / r.TripsPerPassengers[p]
		}
	}

	// Q3: average fare for mid-range trips (2–10 km).
	var fareSum, fareCount uint64
	for i := uint64(0); i < f.N; i++ {
		d := f.DistanceM.Get(i)
		if d >= 2000 && d <= 10000 {
			fareSum += f.FareCents.Get(i)
			fareCount++
		}
	}
	if fareCount > 0 {
		r.AvgFareMidRange = fareSum / fareCount
	}

	// Q4: duration mean and variance (two-pass, like the notebook).
	var durSum uint64
	for i := uint64(0); i < f.N; i++ {
		durSum += f.DropoffTS.Get(i) - f.PickupTS.Get(i)
	}
	r.MeanDurationSecs = durSum / f.N
	var varSum uint64
	for i := uint64(0); i < f.N; i++ {
		d := f.DropoffTS.Get(i) - f.PickupTS.Get(i)
		diff := int64(d) - int64(r.MeanDurationSecs)
		varSum += uint64(diff * diff)
	}
	r.DurationVariance = varSum / f.N

	// Q5: top-10 longest trips (min-heap scan).
	for i := uint64(0); i < f.N; i++ {
		d := f.DistanceM.Get(i)
		if d > r.Top10Distance[0] {
			r.Top10Distance[0] = d
			// Sift the smallest back to position 0.
			for k := 0; k < 9; k++ {
				if r.Top10Distance[k] > r.Top10Distance[k+1] {
					r.Top10Distance[k], r.Top10Distance[k+1] = r.Top10Distance[k+1], r.Top10Distance[k]
				}
			}
		}
	}

	r.Checksum = r.AvgFareMidRange ^ r.MeanDurationSecs ^ r.DurationVariance
	for p := range r.TripsPerPassengers {
		r.Checksum ^= r.TripsPerPassengers[p]*31 + r.MeanDistancePerPax[p]
	}
	for _, d := range r.Top10Distance {
		r.Checksum = r.Checksum*31 + d
	}
	r.Elapsed = sp.Now() - t0
	return r
}
