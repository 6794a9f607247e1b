package sim

import (
	"fmt"

	"nextdvfs/internal/frand"
	"nextdvfs/internal/thermal"
	"nextdvfs/internal/workload"
)

// BatchEngine steps k identically-structured runs in lockstep through
// one shared tick loop. It is the engine core at width k with batched
// kernels: the timeline cursor, per-OPP tables and environment
// schedules are walked once per tick for every lane, the power
// integration sweeps each cluster across contiguous lanes (four at a
// time with AVX2), and the thermal node temperatures live node-major in
// a thermal.Batch.
//
// Bit-identity is the contract, not a best effort: lane r of a batch
// produces byte-for-byte the Result that a scalar Engine produces from
// cfgs[r] alone. The tick loop is stage-major (workload, power,
// thermal, then the per-lane step — each stage sweeps all lanes before
// the next begins), but within a lane the arithmetic touches only that
// lane's state in exactly the scalar order, and lanes never mix
// floating-point terms, so reordering across lanes cannot perturb any
// lane's values. TestBatchMatchesScalarEngine pins this differentially
// for every platform × scenario preset.
//
// Lanes may differ in seed, governor/controller (scheme), record
// cadence and fault hooks; NewBatch rejects configs whose shared
// structure (chip OPP tables, power constants, thermal network,
// timeline shape, schedules, panel rate) is not identical, or whose
// apps are not all *workload.ProfileApp (any other workload.App, a
// wrapper included, runs only on the scalar Engine), so callers can
// attempt batching and fall back to scalar engines on error.
type BatchEngine struct {
	lanes
	therm  *thermal.Batch
	sensor *thermal.VirtualSensor

	// Every app in every lane is a *workload.ProfileApp (NewBatch
	// checks), so the tick loop calls the devirtualized
	// TickFast/StartFrameFast over frand's replayed (bit-identical)
	// streams instead of the App interface over the standard Rand.
	frngs []*frand.Rand
	pApps []*workload.ProfileApp // [nScripts*k], like apps

	// per-lane hot-loop constants mirrored out of cfgs, [k].
	baseW []float64

	// per-tick lane scratch, [k]. The demand fields are mirrored into
	// struct-of-arrays form (demBig/demLittle/demGPU) so integratePower's
	// background routing indexes one flat row per cluster instead of
	// switching on a field per lane; tbBuf/tdBuf hold the batched
	// big-cluster and device-sensor temperature reads.
	demand    []workload.Demand
	demBig    []float64
	demLittle []float64
	demGPU    []float64
	demZero   []float64 // all-zero row for clusters with no background routing
	tbBuf     []float64
	tdBuf     []float64
	ambBuf    []float64 // ambient broadcast for clusters with no thermal node
	sinkZero  []float64 // discard row for chips with neither node nor skin
	rendering []bool
	tickPower []float64
	powerBuf  []float64 // node-major [numNodes*k]

	// Kernel operands per cluster, resolved once by buildIPArgs.
	ip       []ipArgs
	zeroRows []int // powerBuf rows accumulated into per tick
	needAmb  bool  // some cluster has no thermal node
}

// ipArgs is one cluster's resolved power-integration operands: fixed
// [k] windows into the SoA backing arrays plus the cluster constants,
// in the exact argument order of ipLanes/ipLanesAVX2.
type ipArgs struct {
	dem, capCur, render, busyW, curW, maxW, lastU []float64
	dynCur, leakCur, nodeT, sink                  []float64
	capMax, tempCo, idleW                         float64
}

// NewBatch builds a lockstep engine over k configs. Configs are
// validated and defaulted like New does, then checked for structural
// compatibility against lane 0; any mismatch (or shared mutable
// subsystem instances between lanes, or an app that is not a
// *workload.ProfileApp) returns an error so callers can fall back to k
// scalar engines. k=1 is allowed and degenerates to a scalar run.
func NewBatch(cfgs []Config) (*BatchEngine, error) {
	k := len(cfgs)
	if k == 0 {
		return nil, fmt.Errorf("sim: batch needs at least one config")
	}
	local := make([]Config, k)
	for r := range cfgs {
		c := cfgs[r]
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("sim: batch lane %d: %w", r, err)
		}
		c.applyDefaults()
		local[r] = c
	}
	base := &local[0]
	for r := 1; r < k; r++ {
		if err := lockstepCompatible(base, &local[r]); err != nil {
			return nil, fmt.Errorf("sim: batch lane %d: %w", r, err)
		}
	}
	if err := checkDistinctLanes(local); err != nil {
		return nil, err
	}

	b := &BatchEngine{
		therm:  thermal.NewBatch(base.Thermal, k),
		sensor: base.DevSense,
	}
	b.init(local, &b.therm.AmbientC)

	b.pApps = make([]*workload.ProfileApp, len(b.apps))
	for i, app := range b.apps {
		p, ok := app.(*workload.ProfileApp)
		if !ok {
			return nil, fmt.Errorf("sim: batch lane %d: app %T is not a *workload.ProfileApp", i%k, app)
		}
		b.pApps[i] = p
	}
	b.frngs = make([]*frand.Rand, k)
	for r := range local {
		b.frngs[r] = frand.New(local[r].Seed)
	}

	b.baseW = make([]float64, k)
	for r := range local {
		b.baseW[r] = local[r].Power.BaseW
	}
	b.demand = make([]workload.Demand, k)
	b.demBig = make([]float64, k)
	b.demLittle = make([]float64, k)
	b.demGPU = make([]float64, k)
	b.demZero = make([]float64, k)
	b.tbBuf = make([]float64, k)
	b.tdBuf = make([]float64, k)
	b.ambBuf = make([]float64, k)
	b.sinkZero = make([]float64, k)
	b.rendering = make([]bool, k)
	b.tickPower = make([]float64, k)
	b.powerBuf = make([]float64, base.Thermal.NumNodes()*k)
	b.buildIPArgs()
	return b, nil
}

// buildIPArgs resolves each cluster's kernel operands once: every slice
// row integratePower sweeps is a fixed window into a backing array that
// never reallocates, so the per-tick loop reduces to kernel dispatch.
// zeroRows lists the distinct powerBuf rows clusters accumulate into
// (the skin row is assigned, not accumulated, and rows no cluster sinks
// into stay at their initial zeros), so the per-tick clear touches only
// live rows instead of the whole node-major buffer.
func (b *BatchEngine) buildIPArgs() {
	k := b.k
	temps := b.therm.Temps()
	b.ip = make([]ipArgs, b.nc)
	for i := 0; i < b.nc; i++ {
		a := &b.ip[i]
		cb := i * k
		a.capMax = b.maxCapTick[i]
		a.tempCo = b.powTbl[i].TempCo()
		a.idleW = b.powTbl[i].IdleW()
		a.capCur = b.capCurTick[cb:][:k:k]
		a.dynCur = b.dynCur[cb:][:k:k]
		a.leakCur = b.leakCur[cb:][:k:k]
		a.render = b.tickRender[cb:][:k:k]
		a.busyW = b.busyCycles[cb:][:k:k]
		a.curW = b.curCapCycles[cb:][:k:k]
		a.maxW = b.maxCapCycles[cb:][:k:k]
		a.lastU = b.lastUtil[cb:][:k:k]
		switch b.bgSel[i] {
		case bgBig:
			a.dem = b.demBig[:k:k]
		case bgLittle:
			a.dem = b.demLittle[:k:k]
		case bgGPU:
			a.dem = b.demGPU[:k:k]
		default:
			a.dem = b.demZero[:k:k]
		}
		node := b.nodeIdx[i]
		if node >= 0 {
			a.nodeT = temps[node*k:][:k:k]
			a.sink = b.powerBuf[node*k:][:k:k]
			if node != b.skinIdx {
				seen := false
				for _, row := range b.zeroRows {
					if row == node {
						seen = true
						break
					}
				}
				if !seen {
					b.zeroRows = append(b.zeroRows, node)
				}
			}
		} else {
			a.nodeT = b.ambBuf[:k:k]
			b.needAmb = true
			if b.skinIdx >= 0 {
				a.sink = b.powerBuf[b.skinIdx*k:][:k:k]
			} else {
				a.sink = b.sinkZero[:k:k]
			}
		}
	}
}

// Lanes returns the batch width k.
func (b *BatchEngine) Lanes() int { return b.k }

// Run executes all lanes and returns their Results in lane order. Each
// Result is byte-identical to what a scalar Engine built from the same
// config would return.
func (b *BatchEngine) Run() []Result {
	k := b.k
	b.begin()
	b.therm.Reset()

	now := int64(0)

	// Hot-loop state, hoisted once and cut to length k so the per-lane
	// sweeps below index without bounds checks or repeated field loads.
	demand := b.demand[:k:k]
	demBig := b.demBig[:k:k]
	demLittle := b.demLittle[:k:k]
	demGPU := b.demGPU[:k:k]
	tbBuf := b.tbBuf[:k:k]
	tdBuf := b.tdBuf[:k:k]
	rendering := b.rendering[:k:k]
	tickPower := b.tickPower[:k:k]
	tbRow := b.therm.Temps()[b.bigTempI*k:][:k:k]

	for {
		now += tickUS
		si, inter, ok := b.enter(now)
		if !ok {
			break
		}
		apps := b.scriptApps(si)

		// Stage 1: workload + renderer, per lane, through the concrete
		// ProfileApp methods over the replayed rng stream.
		papps := b.pApps[si*k:][:k:k]
		for r := 0; r < k; r++ {
			d := papps[r].TickFast(now, tickUS, inter, b.frngs[r])
			demand[r] = d
			demBig[r], demLittle[r], demGPU[r] = d.BigBg, d.LittleBg, d.GPUBg
			if b.frameSlot(r, d.WantFrame) {
				b.startFrame(r, papps[r].StartFrameFast(inter, b.frngs[r]))
			}
			rendering[r] = b.render(r)
		}

		// Stage 2: batched power integration and thermal step across all
		// lanes, then batched temperature reads: the big-cluster node row
		// is a copy, the device sensor a node-outer weighted blend.
		b.integratePower(inter == workload.InterOff)
		b.therm.Step(dtSec, b.powerBuf)
		copy(tbBuf, tbRow)
		b.sensor.ReadAllBatchC(b.therm, tdBuf)

		// Stage 3: the core's per-lane step. Per lane the arithmetic
		// order is exactly the scalar engine's — the accounting after
		// the thermal step is fine because it feeds nothing the thermal
		// step reads.
		for r := 0; r < k; r++ {
			b.finishTick(r, now, apps[r], inter, tickPower[r], tbBuf[r], tdBuf[r], rendering[r] || demand[r].WantFrame)
		}
	}
	return b.finish()
}

// integratePower is the batched tick power integration: cluster-outer,
// lane-inner, so each cluster's capacity table, power table, thermal
// node index and background routing load once and then sweep k
// contiguous lanes. Per lane the terms and their order are exactly the
// scalar integratePower's. Fills b.tickPower and the node-major
// b.powerBuf for the thermal step.
func (b *BatchEngine) integratePower(screenOff bool) {
	k := b.k
	total := b.tickPower[:k:k]
	baseW := b.baseW[:k:k]
	for r := range total {
		bw := baseW[r]
		if screenOff {
			bw *= screenOffBaseFrac
		}
		total[r] = bw
	}
	for _, row := range b.zeroRows {
		z := b.powerBuf[row*k:][:k:k]
		for r := range z {
			z[r] = 0
		}
	}
	if b.skinIdx >= 0 {
		skin := b.powerBuf[b.skinIdx*k:][:k:k]
		for r := range total {
			skin[r] = total[r] * skinPowerFrac
		}
	}
	if b.needAmb {
		amb := b.therm.AmbientC
		ambT := b.ambBuf[:k:k]
		for r := range ambT {
			ambT[r] = amb
		}
	}

	if useAVX2 && k >= 4 && k%4 == 0 {
		for i := range b.ip {
			ipLanesAVX2(&b.ip[i], total, int64(k))
		}
		return
	}
	for i := range b.ip {
		a := &b.ip[i]
		ipLanes(a.dem, a.capCur, a.render, a.busyW, a.curW, a.maxW, a.lastU,
			a.dynCur, a.leakCur, a.nodeT, a.sink, total, a.capMax, a.tempCo, a.idleW)
	}
}

// ipLanes is one cluster's power integration across the lane rows — the
// portable reference for ipLanesAVX2, which computes the identical IEEE
// operation sequence four lanes at a time (each lane occupies one SIMD
// slot, so per-lane results are bit-identical; TestIPLanesAVX2MatchesGo
// pins the pairing).
func ipLanes(dem, capCur, render, busyW, curW, maxW, lastU, dynCur, leakCur, nodeT, sink, total []float64, capMax, tempCo, idleW float64) {
	for r := range total {
		bg := dem[r]
		capC := capCur[r]
		avail := capC - render[r]
		if avail < 0 {
			avail = 0
		}
		bgCycles := bg * capMax
		if bgCycles > avail {
			bgCycles = avail
		}
		busy := busyW[r] + bgCycles
		busyW[r] = busy
		curCap := curW[r] + capC
		curW[r] = curCap
		maxW[r] += capMax

		util := 0.0
		if curCap > 0 {
			util = busy / curCap
		}
		if util > 1 {
			util = 1
		}
		lastU[r] = util

		// power.Table.Power inlined over the mirrored row: util is
		// already in [0,1] here, so the clamps reduce to the leakage
		// floor; the term order matches Power exactly.
		dyn := dynCur[r] * util
		leak := leakCur[r] * (1 + tempCo*(nodeT[r]-25))
		if leak < 0 {
			leak = 0
		}
		w := dyn + leak + idleW
		total[r] += w
		sink[r] += w
	}
}
