package experiments

import (
	"encoding/json"
	"sort"
	"strings"

	"dilos/internal/core"
	"dilos/internal/fabric"
	"dilos/internal/prefetch"
	"dilos/internal/sim"
	"dilos/internal/telemetry"
	"dilos/internal/tenant"
)

// This file holds ext8, the multi-tenant extension: two tenants share one
// DiLOS pool — a well-behaved victim whose hot set fits its quota plus a
// steady trickle of cold-page demand, and an adversarial aggressor whose
// working set is 8× its quota, streaming stores through a readahead window
// so it thrashes both the frame pool and the fabric. Three legs:
//
//	solo      — the victim alone on a pool sized to its quota (baseline)
//	isolated  — victim + aggressor with quotas, floors, slack, the
//	            pressure rebalancer, and a fabric token bucket capping the
//	            aggressor's bandwidth
//	control   — same pair, TenancyConfig.NoIsolation: every view spans the
//	            whole pool, no buckets — the unpartitioned behaviour
//
// The gate: the isolated victim's major-fault p99 stays within
// TenantGate× the solo baseline while the control leg exceeds it, and the
// same-seed isolated leg is byte-identical across repeats.

// TenantGate is the acceptance ratio for the isolated victim's p99.
const TenantGate = 1.5

const (
	tenantRunFor = 10 * sim.Millisecond
	// The first 3ms warm the victim's hot set (and let the aggressor reach
	// steady thrash); quantiles are taken over the remainder.
	tenantWarmup = 3 * sim.Millisecond
	// Burst credit on the aggressor's bucket: four pages. Small on purpose —
	// burst bytes are wire time a victim demand fetch can land behind, so
	// the bucket paces the aggressor near-fluid instead of admitting whole
	// readahead windows back to back.
	tenantAggrBurst = int64(16) << 10
	// Rebalance cadence for the isolated leg: fast enough to tick dozens
	// of times per run, proving the victim's floor holds under pressure.
	tenantRebalanceTick = 500 * sim.Microsecond
	tenantRebalanceStep = 8
)

// TenantResult is the ext8 outcome.
type TenantResult struct {
	// Sizing (pages / frames).
	VictimHotPages  uint64
	VictimColdPages uint64
	AggressorPages  uint64
	VictimFrames    int
	AggressorFrames int
	SlackFrames     int

	RunFor      sim.Time
	MeasureFrom sim.Time

	// Victim major-fault latency per leg over [MeasureFrom, RunFor).
	SoloP50, SoloP99 sim.Time
	SoloFaults       int
	IsoP50, IsoP99   sim.Time
	IsoFaults        int
	CtrlP50, CtrlP99 sim.Time
	CtrlFaults       int

	// The gates.
	IsoRatio    float64 // IsoP99 / SoloP99 (target ≤ Gate)
	CtrlRatio   float64 // CtrlP99 / SoloP99 (expected > Gate)
	Gate        float64
	IsoPass     bool
	CtrlExceeds bool

	// Aggressor behaviour: total major faults with and without the cap.
	AggrFaultsIso  int64
	AggrFaultsCtrl int64
	AggrRate       int64 // bucket rate applied in the isolated leg

	// Floor enforcement: the victim's reservation after a run full of
	// rebalancer ticks under an adversarial neighbour.
	VictimFloor       int
	VictimReservedEnd int

	// Deterministic: the isolated leg repeated gives a byte-identical
	// registry snapshot.
	Deterministic bool
}

// tenantSizing derives every working-set and quota size from one unit.
type tenantSizing struct {
	hot, cold, aggr       uint64 // pages
	victimQ, aggrQ, slack int    // frames
}

func tenantSizingFor(sc Scale) tenantSizing {
	// The floor matches the sizing the bucket tuning (rate, burst) is
	// calibrated against; smaller scales reuse it rather than shrinking
	// the quotas under a fixed absolute bandwidth cap.
	unit := sc.SeqPages / 16
	if unit < 1024 {
		unit = 1024
	}
	return tenantSizing{
		hot:     unit * 3 / 4, // fits the victim quota with headroom
		cold:    unit * 2,     // never cache-resident: a steady major-fault probe
		aggr:    unit * 4,     // 8× the aggressor quota — permanent thrash
		victimQ: int(unit),
		aggrQ:   int(unit / 2),
		slack:   int(unit / 8),
	}
}

type tenantLegMode int

const (
	tenantSolo tenantLegMode = iota
	tenantIso
	tenantCtrl
)

type tenantLeg struct {
	sys    *core.System
	rec    *telemetry.Recorder
	victim *core.Tenant
	aggr   *core.Tenant
	snap   []byte // registry snapshot JSON (the determinism gate)
}

func (r *Run) runTenantLeg(sz tenantSizing, mode tenantLegMode) tenantLeg {
	eng := sim.New()
	rec := telemetry.NewRecorder(1 << 15)

	cache := sz.victimQ
	tc := core.TenancyConfig{}
	switch mode {
	case tenantIso:
		cache = sz.victimQ + sz.aggrQ + sz.slack
		tc = core.TenancyConfig{
			SlackFrames:    sz.slack,
			RebalanceEvery: tenantRebalanceTick,
			RebalanceStep:  tenantRebalanceStep,
		}
	case tenantCtrl:
		cache = sz.victimQ + sz.aggrQ + sz.slack
		tc = core.TenancyConfig{NoIsolation: true}
	}
	sys := core.New(eng, core.Config{
		CacheFrames: cache,
		Cores:       2,
		RemoteBytes: (sz.hot+sz.cold+sz.aggr)*core.PageSize + (64 << 20),
		Fabric:      fabric.DefaultParams(),
		Batch:       r.Batch,
		Tenancy:     &tc,
		Tel:         rec,
		SampleEvery: r.SampleEvery,
	})

	victim, err := sys.NewTenant(core.TenantSpec{
		Name:  "victim",
		Quota: tenantQuota(sz.victimQ, 0),
	})
	if err != nil {
		panic(err)
	}
	leg := tenantLeg{sys: sys, rec: rec, victim: victim}
	if mode != tenantSolo {
		leg.aggr, err = sys.NewTenant(core.TenantSpec{
			Name:       "aggressor",
			Quota:      tenantQuota(sz.aggrQ, r.TenantAggressorRate),
			Prefetcher: prefetch.NewReadahead(31),
		})
		if err != nil {
			panic(err)
		}
	}
	sys.Start()

	victim.Launch("victim", 0, func(sp *core.DDCProc) {
		hotBase, err := victim.MmapDDC(sz.hot)
		if err != nil {
			panic(err)
		}
		coldBase, err := victim.MmapDDC(sz.cold)
		if err != nil {
			panic(err)
		}
		for i := uint64(0); i < sz.hot; i++ {
			sp.StoreU64(hotBase+i*core.PageSize, i)
		}
		hi, ci := uint64(0), uint64(0)
		for sp.Proc().Now() < tenantRunFor {
			// 16 hot re-touches per cold probe: the victim's fabric demand
			// stays modest (one 4 KiB fetch per ~handful of µs) so its p99
			// isolates *queueing behind the neighbour*, not self-thrash.
			for k := 0; k < 16; k++ {
				sp.LoadU64(hotBase + hi*core.PageSize)
				hi = (hi + 1) % sz.hot
			}
			sp.LoadU64(coldBase + ci*core.PageSize)
			ci = (ci + 1) % sz.cold
		}
	})
	if leg.aggr != nil {
		aggr := leg.aggr
		aggr.Launch("aggressor", 1, func(sp *core.DDCProc) {
			base, err := aggr.MmapDDC(sz.aggr)
			if err != nil {
				panic(err)
			}
			i := uint64(0)
			for sp.Proc().Now() < tenantRunFor {
				// Streaming stores through a wide readahead window: every
				// page both fetches and dirties, so the cleaner doubles the
				// aggressor's wire bytes.
				sp.StoreU64(base+i*core.PageSize, i)
				i = (i + 1) % sz.aggr
			}
		})
	}
	eng.Run()
	leg.snap, err = json.Marshal(sys.Registry().Snapshot())
	if err != nil {
		panic(err)
	}
	return leg
}

// tenantQuota builds the weight-1 quota ext8 uses: the floor pins the
// whole reservation (spare = 0), making the partition explicit.
func tenantQuota(floor int, rate int64) tenant.Quota {
	q := tenant.Quota{Weight: 1, FloorFrames: floor, FabricBytesPerSec: rate}
	if rate > 0 {
		q.FabricBurstBytes = tenantAggrBurst
	}
	return q
}

// tenantFaultQuantiles pulls the major-fault spans that started inside
// [from, to) off tracks with the given prefix ("tenant.<name>.fault/core") and
// returns p50/p99 plus the sample count.
func tenantFaultQuantiles(rec *telemetry.Recorder, prefix string, from, to sim.Time) (p50, p99 sim.Time, n int) {
	var durs []sim.Time
	for id, name := range rec.Tracks() {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		for _, s := range rec.Spans(id) {
			if s.Kind == telemetry.KindMajorFault && s.Start >= from && s.Start < to {
				durs = append(durs, s.Dur())
			}
		}
	}
	if len(durs) == 0 {
		return 0, 0, 0
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	q := func(p float64) sim.Time {
		return durs[int(p*float64(len(durs)-1))]
	}
	return q(0.50), q(0.99), len(durs)
}

// ExtTenant runs ext8: solo baseline, isolated pair, unpartitioned
// control, plus a repeat of the isolated leg for the byte-identity gate.
func ExtTenant(r *Run) TenantResult {
	sz := tenantSizingFor(r.Scale)

	solo := r.runTenantLeg(sz, tenantSolo)
	r.collect("ext8/solo", solo.sys)
	iso := r.runTenantLeg(sz, tenantIso)
	r.collect("ext8/isolated", iso.sys)
	ctrl := r.runTenantLeg(sz, tenantCtrl)
	r.collect("ext8/control", ctrl.sys)
	rerun := r.runTenantLeg(sz, tenantIso)

	res := TenantResult{
		VictimHotPages:  sz.hot,
		VictimColdPages: sz.cold,
		AggressorPages:  sz.aggr,
		VictimFrames:    sz.victimQ,
		AggressorFrames: sz.aggrQ,
		SlackFrames:     sz.slack,
		RunFor:          tenantRunFor,
		MeasureFrom:     tenantWarmup,
		Gate:            TenantGate,
		AggrRate:        r.TenantAggressorRate,
		Deterministic:   string(iso.snap) == string(rerun.snap),
	}
	const victimTracks = "tenant.victim.fault/core"
	res.SoloP50, res.SoloP99, res.SoloFaults = tenantFaultQuantiles(solo.rec, victimTracks, tenantWarmup, tenantRunFor)
	res.IsoP50, res.IsoP99, res.IsoFaults = tenantFaultQuantiles(iso.rec, victimTracks, tenantWarmup, tenantRunFor)
	res.CtrlP50, res.CtrlP99, res.CtrlFaults = tenantFaultQuantiles(ctrl.rec, victimTracks, tenantWarmup, tenantRunFor)
	if res.SoloP99 > 0 {
		res.IsoRatio = float64(res.IsoP99) / float64(res.SoloP99)
		res.CtrlRatio = float64(res.CtrlP99) / float64(res.SoloP99)
	}
	res.IsoPass = res.IsoRatio > 0 && res.IsoRatio <= res.Gate
	res.CtrlExceeds = res.CtrlRatio > res.Gate
	res.AggrFaultsIso = iso.aggr.Sys.MajorFaults.N
	res.AggrFaultsCtrl = ctrl.aggr.Sys.MajorFaults.N
	res.VictimFloor = iso.victim.Quota.FloorFrames
	res.VictimReservedEnd = iso.victim.View().Reserved()
	return res
}
