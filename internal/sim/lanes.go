package sim

import (
	"fmt"
	"math/rand"

	"nextdvfs/internal/ctrl"
	"nextdvfs/internal/display"
	"nextdvfs/internal/governor"
	"nextdvfs/internal/power"
	"nextdvfs/internal/session"
	"nextdvfs/internal/soc"
	"nextdvfs/internal/stats"
	"nextdvfs/internal/thermal"
	"nextdvfs/internal/workload"
)

// lanes is the engine core both engines run on: k structurally
// identical runs that share one timeline cursor, one set of per-OPP
// tables and one pair of environment schedules, with every mutable
// quantity held per lane. Engine is the k=1 case, BatchEngine any k.
// What differs between the two is only the per-tick kernels around it —
// the workload draw, power integration, thermal step and sensor read —
// so the frame pipeline, utilization windows, governor and controller
// cadences, trace recording and Result assembly exist once, here.
//
// Per-cluster state is cluster-major: cluster i of lane r lives at
// [i*k+r], so a kernel that sweeps one cluster across all lanes walks
// contiguous memory. Per lane the arithmetic is one fixed sequence, and
// lanes never mix floating-point terms, so a lane's Result does not
// depend on k or on its position in the batch.
type lanes struct {
	k, nc int

	// Shared immutable structure, built from lane 0 (NewBatch checks the
	// other lanes would build the same). Every folded product keeps the
	// evaluation order of the expression it replaces.
	powTbl     []*power.Table // cluster i -> per-OPP power lookup
	capPerTick [][]float64    // cluster i, OPP j -> cycles/tick at full util
	maxCapTick []float64      // cluster i -> cycles/tick at the top OPP
	bigPerCore []float64      // render CPU stage OPP j -> cycles/sec of one core
	gpuDrain   []float64      // render GPU stage OPP j -> render cycles/tick
	bigIdx     int            // chip index of the render CPU stage (-1 if none)
	gpuIdx     int            // chip index of the render GPU stage (-1 if none)
	bigCoresF  float64        // core count of the render CPU stage
	bgSel      []int          // cluster i -> which Demand field feeds its background load
	nodeIdx    []int          // cluster i -> thermal node index (-1 if absent)
	skinIdx    int            // skin thermal node (-1 if absent)
	bigTempI   int            // big-cluster thermal node (Validate guarantees one)
	opps       [][]int        // cluster i -> OPP frequencies, kHz
	cursor     *session.Cursor
	amb        *thermal.AmbientSchedule
	ref        *display.RefreshSchedule
	nativeHz   int
	// ambientC points at the ambient the engine's thermal kernel reads;
	// the ambient schedule writes through it and snapshots read it.
	ambientC *float64

	clusters []*soc.Cluster // cluster-major [nc*k]
	apps     []workload.App // script-major [nScripts*k]; see scriptApps
	lane     []laneState    // [k]
	// results are this run's, [k]: fresh each run, because Run hands
	// them out.
	results []Result

	// Cluster-major [nc*k] run state.
	busyCycles   []float64 // since last governor decision
	curCapCycles []float64
	maxCapCycles []float64
	utilEWMA     []stats.EWMA
	lastUtil     []float64
	// tickRender holds this tick's render-thread cycles, which the power
	// kernels charge before background work: Android UI/render threads
	// outrank background work.
	tickRender []float64
	// DVFS mirror: the current OPP's per-tick capacity and power-table
	// row for every lane-cluster (and each lane's renderer drain rates),
	// cached flat so the per-tick loops never chase cluster pointers or
	// index OPP tables. Clusters only change OPP inside governor
	// decisions, controller actuation and the run prologue — syncDVFS
	// refreshes the mirror at exactly those points.
	capCurTick []float64
	dynCur     []float64
	leakCur    []float64
}

// laneState is one lane's subsystems and per-lane run state, accessed
// as a unit by the per-lane step.
type laneState struct {
	cfg     *Config
	disp    *display.Pipeline
	gov     governor.Governor
	ctl     ctrl.Controller
	booster governor.InputBooster // non-nil when the governor boosts on input
	rng     *rand.Rand

	rend        rendState
	bigDrain    float64 // DVFS mirror: render CPU stage per-core drain at cur OPP
	gpuDrain    float64 // DVFS mirror: render GPU stage drain per tick at cur OPP
	lastPowerW  float64
	ctlPowerSum float64 // power integrated since the last Control
	ctlPowerN   int
	nextGovUS   int64
	nextObsUS   int64
	nextCtlUS   int64
	nextRecUS   int64
	meter       power.Meter
	acc         accumulators

	// Each lane has its own view and snapshot buffers, so a controller
	// that retains a slice past its call never observes another lane's
	// data. The sample buffers are one allocation per run instead of
	// three per recorded sample; the slices handed out in Result alias
	// into them, so they are re-made each run, never recycled.
	views       []ctrl.ClusterView
	obs         []governor.Observation
	snap        ctrl.Snapshot
	nSamples    int
	sampleInts  []int
	sampleUtils []float64
}

// rendState is one lane's two-stage CPU→GPU frame pipeline.
type rendState struct {
	cpuJob       workload.FrameJob
	cpuRemaining float64
	gpuRemaining float64
	cpuActive    bool
	gpuActive    bool
	gpuDone      bool // frame finished GPU but waiting for a back buffer
}

// Background-demand routing per cluster, resolved once at construction
// so the power kernels switch on a small int instead of comparing
// cluster pointers.
const (
	bgNone = iota
	bgBig
	bgLittle
	bgGPU
)

// init builds the core over validated, defaulted configs that are
// lockstep-compatible with lane 0; lane r keeps a pointer to cfgs[r].
// ambientC is the engine's thermal kernel ambient.
func (l *lanes) init(cfgs []Config, ambientC *float64) {
	k := len(cfgs)
	base := &cfgs[0]
	nc := len(base.Chip.Clusters)
	l.k, l.nc = k, nc
	l.nativeHz = base.Display.RefreshHz
	l.cursor = session.NewCursor(base.Timeline)
	l.amb, l.ref = base.Ambient, base.Refresh
	l.ambientC = ambientC

	// The renderer needs a big CPU stage and a GPU stage: by name, else
	// the first CPU/GPU clusters by kind.
	var big, little, gpu *soc.Cluster
	for _, c := range base.Chip.Clusters {
		switch c.Name {
		case soc.ClusterBig:
			big = c
		case soc.ClusterLITTLE:
			little = c
		case soc.ClusterGPU:
			gpu = c
		}
	}
	if big == nil || gpu == nil {
		for _, c := range base.Chip.Clusters {
			if big == nil && c.Kind == soc.KindCPU {
				big = c
			}
			if gpu == nil && c.Kind == soc.KindGPU {
				gpu = c
			}
		}
	}
	l.powTbl = make([]*power.Table, nc)
	l.capPerTick = make([][]float64, nc)
	l.maxCapTick = make([]float64, nc)
	l.opps = make([][]int, nc)
	l.nodeIdx = make([]int, nc)
	l.bgSel = make([]int, nc)
	l.bigIdx, l.gpuIdx = -1, -1
	for i, c := range base.Chip.Clusters {
		l.powTbl[i] = base.Power.Table(c)
		caps := make([]float64, c.NumOPPs())
		khz := make([]int, c.NumOPPs())
		for j := range caps {
			caps[j] = float64(c.OPPAt(j).FreqKHz) * 1e3 * c.IPC * float64(c.Cores) * dtSec
			khz[j] = c.OPPAt(j).FreqKHz
		}
		l.capPerTick[i] = caps
		l.maxCapTick[i] = caps[len(caps)-1]
		l.opps[i] = khz
		if idx, ok := base.Thermal.Index(c.Name); ok {
			l.nodeIdx[i] = idx
		} else {
			l.nodeIdx[i] = -1
		}
		switch c {
		case big:
			l.bgSel[i] = bgBig
		case little:
			l.bgSel[i] = bgLittle
		case gpu:
			l.bgSel[i] = bgGPU
		default:
			l.bgSel[i] = bgNone
		}
		if c == big {
			l.bigIdx = i
		}
		if c == gpu {
			l.gpuIdx = i
		}
	}
	if big != nil {
		l.bigPerCore = make([]float64, big.NumOPPs())
		for j := range l.bigPerCore {
			l.bigPerCore[j] = float64(big.OPPAt(j).FreqKHz) * 1e3 * big.IPC
		}
		l.bigCoresF = float64(big.Cores)
	}
	if gpu != nil {
		l.gpuDrain = make([]float64, gpu.NumOPPs())
		for j := range l.gpuDrain {
			l.gpuDrain[j] = float64(gpu.OPPAt(j).FreqKHz) * 1e3 * gpu.IPC * float64(gpu.Cores) * dtSec
		}
	}
	if skin, ok := base.Thermal.Index(thermal.NodeSkin); ok {
		l.skinIdx = skin
	} else {
		l.skinIdx = -1
	}
	l.bigTempI = base.Thermal.MustIndex(thermal.NodeBig)

	// Per-lane subsystems. Clusters are re-resolved per lane — the
	// structural check guarantees the name/kind resolution lands on the
	// same chip indices in every lane.
	l.clusters = make([]*soc.Cluster, nc*k)
	l.lane = make([]laneState, k)
	for r := range cfgs {
		cfg := &cfgs[r]
		for i, c := range cfg.Chip.Clusters {
			l.clusters[i*k+r] = c
		}
		ln := &l.lane[r]
		ln.cfg, ln.disp, ln.gov, ln.ctl = cfg, cfg.Display, cfg.Governor, cfg.Controller
		ln.booster, _ = cfg.Governor.(governor.InputBooster)
		ln.rng = rand.New(rand.NewSource(cfg.Seed))
		ln.views = make([]ctrl.ClusterView, nc)
		ln.obs = make([]governor.Observation, nc)
	}
	l.apps = make([]workload.App, len(base.Timeline.Scripts)*k)
	for r := range cfgs {
		for si, sc := range cfgs[r].Timeline.Scripts {
			l.apps[si*k+r] = sc.App
		}
	}

	l.busyCycles = make([]float64, nc*k)
	l.curCapCycles = make([]float64, nc*k)
	l.maxCapCycles = make([]float64, nc*k)
	l.utilEWMA = make([]stats.EWMA, nc*k)
	for i := range l.utilEWMA {
		l.utilEWMA[i].Alpha = 0.5
	}
	l.lastUtil = make([]float64, nc*k)
	l.tickRender = make([]float64, nc*k)
	l.capCurTick = make([]float64, nc*k)
	l.dynCur = make([]float64, nc*k)
	l.leakCur = make([]float64, nc*k)
}

// begin is the per-run prologue of every lane: DVFS, environment
// schedules, display, governor, controller and run state back to their
// start, fresh sample buffers. The ambient schedule's opening value is
// written through ambientC; the caller then resets its thermal kernel,
// which restores node temperatures to that ambient.
func (l *lanes) begin() {
	for r := range l.lane {
		l.lane[r].cfg.Chip.ResetDVFS()
	}
	if l.amb != nil {
		l.amb.Start()
		*l.ambientC = l.amb.At(0)
	}
	if l.ref != nil {
		// Restore the native panel rate a previous run's schedule may have
		// switched away from, then rewind the schedule.
		for r := range l.lane {
			l.lane[r].disp.SetRefresh(l.nativeHz, 0)
		}
		l.ref.Start()
	}
	l.results = make([]Result, l.k)
	for r := range l.lane {
		ln := &l.lane[r]
		cfg := ln.cfg
		ln.disp.Reset()
		ln.gov.Reset()
		if ln.ctl != nil {
			ln.ctl.Reset()
		}
		ln.rend = rendState{}
		ln.nextGovUS, ln.nextObsUS, ln.nextCtlUS, ln.nextRecUS = 0, 0, 0, 0
		ln.lastPowerW = 0
		ln.ctlPowerSum, ln.ctlPowerN = 0, 0
		ln.meter = power.Meter{}
		ln.acc = accumulators{}
		// Sized for the record cadence so the tick loop itself never
		// allocates.
		ln.nSamples = int(cfg.Timeline.DurUS()/cfg.RecordIntervalUS) + 2
		ln.sampleInts = make([]int, 0, ln.nSamples*l.nc*2)
		ln.sampleUtils = make([]float64, 0, ln.nSamples*l.nc)
		l.results[r] = Result{Scheme: ln.gov.Name()}
		if ln.ctl != nil {
			l.results[r].Scheme = ln.ctl.Name()
		}
	}
	for i := range l.busyCycles {
		l.busyCycles[i] = 0
		l.curCapCycles[i] = 0
		l.maxCapCycles[i] = 0
		l.utilEWMA[i].Reset()
		l.lastUtil[i] = 0
	}
	for r := range l.lane {
		l.syncDVFS(r)
	}
	l.cursor.Rewind()
}

// enter advances the shared cursor to tick now and applies what the
// tick's phase means for every lane: app switches, the environment
// schedules and input boost. It returns the active script index and
// interaction; ok is false once the timeline has ended.
func (l *lanes) enter(now int64) (si int, inter workload.Interaction, ok bool) {
	_, inter, entered, ok := l.cursor.At(now)
	if !ok {
		return 0, inter, false
	}
	si = l.cursor.ScriptIndex()
	if entered {
		for r, app := range l.scriptApps(si) {
			ln := &l.lane[r]
			app.Reset()
			ln.rend = rendState{} // abandon any partially rendered frame
			if c := ln.ctl; c != nil {
				c.AppChanged(app.Name(), app.Class() == workload.ClassGame)
			}
		}
	}
	if l.amb != nil {
		*l.ambientC = l.amb.At(now)
	}
	if l.ref != nil {
		// All displays carry the same rate at all times (it only ever
		// changes here), so lane 0's current rate stands in for all.
		if hz := l.ref.At(now); hz > 0 && hz != l.lane[0].disp.RefreshHz {
			for r := range l.lane {
				l.lane[r].disp.SetRefresh(hz, now)
			}
		}
	}
	// Input boost fires on every tick of an active gesture, like the
	// stream of input events Android sees. Gameplay counts: a game
	// session is a continuous stream of touchscreen input, which is
	// precisely why stock Android keeps CPU floors boosted through
	// entire matches.
	if inter == workload.InterTouch || inter == workload.InterScroll || inter == workload.InterPlay {
		for r := range l.lane {
			if bo := l.lane[r].booster; bo != nil {
				bo.OnInput(now)
			}
		}
	}
	clear(l.tickRender)
	return si, inter, true
}

// scriptApps returns script si's app instance in every lane.
func (l *lanes) scriptApps(si int) []workload.App { return l.apps[si*l.k:][:l.k:l.k] }

// frameSlot reports whether lane r can start the frame its app wants:
// the CPU stage is free and the display can eventually take the frame.
// The engine draws the job from its own stream and hands it to
// startFrame.
func (l *lanes) frameSlot(r int, want bool) bool {
	ln := &l.lane[r]
	return !ln.rend.cpuActive && want && ln.disp.BackBufferFree()
}

func (l *lanes) startFrame(r int, job workload.FrameJob) {
	rs := &l.lane[r].rend
	rs.cpuJob = job
	rs.cpuRemaining = job.CPUWork
	rs.cpuActive = true
}

// render drains lane r's CPU and GPU stages by one tick and reports
// whether any stage is busy (a frame is in flight). Render threads run
// at Android UI priority: they take the cores they can use, and the
// power kernels give the app's background work the leftovers.
func (l *lanes) render(r int) bool {
	ln := &l.lane[r]
	rs := &ln.rend

	// CPU stage on the big cluster.
	if rs.cpuActive && l.bigIdx >= 0 {
		cores := rs.cpuJob.Parallelism
		if limit := l.bigCoresF; cores > limit {
			cores = limit
		}
		used := ln.bigDrain * cores * dtSec
		if used > rs.cpuRemaining {
			used = rs.cpuRemaining
		}
		rs.cpuRemaining -= used
		l.noteRender(l.bigIdx, r, used)
		if rs.cpuRemaining <= 0 {
			rs.cpuActive = false
			// Hand to GPU stage (stalls if GPU still busy with previous).
			if !rs.gpuActive && !rs.gpuDone {
				rs.gpuRemaining = rs.cpuJob.GPUWork
				rs.gpuActive = true
			} else {
				// GPU busy: model the handoff queue of depth 1 by leaving
				// the CPU stage blocked until the GPU frees.
				rs.cpuActive = true
				rs.cpuRemaining = 0
			}
		}
	}

	// Unblock a finished CPU stage waiting on the GPU.
	if rs.cpuActive && rs.cpuRemaining <= 0 && !rs.gpuActive && !rs.gpuDone {
		rs.gpuRemaining = rs.cpuJob.GPUWork
		rs.gpuActive = true
		rs.cpuActive = false
	}

	// GPU stage: rendering owns the GPU; decode/composition background
	// shares but yields priority.
	if rs.gpuActive && l.gpuIdx >= 0 {
		used := ln.gpuDrain
		if used > rs.gpuRemaining {
			used = rs.gpuRemaining
		}
		rs.gpuRemaining -= used
		l.noteRender(l.gpuIdx, r, used)
		if rs.gpuRemaining <= 0 {
			rs.gpuActive = false
			rs.gpuDone = true
		}
	}

	// Offer the completed frame; back-pressure holds it if buffers full.
	if rs.gpuDone && ln.disp.OfferFrame() {
		rs.gpuDone = false
	}
	return rs.cpuActive || rs.gpuActive || rs.gpuDone
}

// noteRender charges render cycles to cluster i of lane r.
func (l *lanes) noteRender(i, r int, used float64) {
	idx := i*l.k + r
	l.tickRender[idx] += used
	l.busyCycles[idx] += used
}

// finishTick is lane r's step after the kernels have produced its tick
// power p and temperatures tb (big cluster) and td (device sensor):
// accounting, the display, and the governor, controller and trace
// cadences. expecting is whether the lane had a frame in flight or
// wanted one.
func (l *lanes) finishTick(r int, now int64, app workload.App, inter workload.Interaction, p, tb, td float64, expecting bool) {
	ln := &l.lane[r]
	cfg := ln.cfg
	acc := &ln.acc
	ln.lastPowerW = p
	ln.ctlPowerSum += p
	ln.ctlPowerN++
	ln.meter.Accumulate(p, dtSec)
	acc.power.Push(p)
	acc.tempBig.Push(tb)
	acc.tempDev.Push(td)

	ln.disp.Tick(now, expecting)
	fps := ln.disp.FPS(now)
	acc.fps.Push(fps)
	if expecting {
		acc.activeFPS.Push(fps)
	}

	if now >= ln.nextGovUS {
		l.decideGovernor(r, now)
		ln.nextGovUS = now + ln.gov.IntervalUS()
		l.syncDVFS(r)
	}
	if c := ln.ctl; c != nil {
		if iv := c.ObserveIntervalUS(); iv > 0 && now >= ln.nextObsUS {
			c.Observe(l.snapshot(r, now, fps, app, tb, td))
			ln.nextObsUS = now + iv
		}
		if iv := c.ControlIntervalUS(); iv > 0 && now >= ln.nextCtlUS {
			snap := l.snapshot(r, now, fps, app, tb, td)
			// Controllers read window-averaged power, like the
			// integrating fuel gauge a real agent samples.
			if ln.ctlPowerN > 0 {
				snap.PowerW = ln.ctlPowerSum / float64(ln.ctlPowerN)
			}
			ln.ctlPowerSum, ln.ctlPowerN = 0, 0
			c.Control(snap, chipActuator{cfg.Chip})
			ln.nextCtlUS = now + iv
			l.syncDVFS(r)
		}
	}
	if now >= ln.nextRecUS {
		res := &l.results[r]
		if res.Samples == nil {
			res.Samples = make([]Sample, 0, ln.nSamples)
		}
		res.Samples = append(res.Samples, l.sample(r, now, app, inter, fps, p, tb, td))
		ln.nextRecUS = now + cfg.RecordIntervalUS
	}
}

// finish completes and returns every lane's Result from its run
// accumulators.
func (l *lanes) finish() []Result {
	for r := range l.lane {
		ln := &l.lane[r]
		res := &l.results[r]
		d := ln.disp
		res.DurationS = float64(ln.cfg.Timeline.DurUS()) / 1e6
		res.AvgPowerW = ln.meter.AvgW()
		res.PeakPowerW = ln.acc.power.Max()
		res.EnergyJ = ln.meter.EnergyJ
		res.AvgTempBigC = ln.acc.tempBig.Mean()
		res.PeakTempBigC = ln.acc.tempBig.Max()
		res.AvgTempDevC = ln.acc.tempDev.Mean()
		res.PeakTempDevC = ln.acc.tempDev.Max()
		res.AvgFPS = ln.acc.fps.Mean()
		res.ActiveAvgFPS = ln.acc.activeFPS.Mean()
		res.FramesDisplayed = d.Displayed()
		res.FramesDropped = d.Dropped()
		res.VSyncs = d.VSyncs()
	}
	res := l.results
	l.results = nil
	return res
}

// syncDVFS refreshes lane r's DVFS mirror — the per-tick capacity,
// power-table row and renderer drain rates at each cluster's current
// OPP. Call after anything that can move an OPP index: the run
// prologue's ResetDVFS, a governor Decide (input boost can push cur via
// the floor) and a controller Control (cap/pin actuation).
func (l *lanes) syncDVFS(r int) {
	k := l.k
	for i := 0; i < l.nc; i++ {
		idx := i*k + r
		cur := l.clusters[idx].Cur()
		l.capCurTick[idx] = l.capPerTick[i][cur]
		l.dynCur[idx], l.leakCur[idx] = l.powTbl[i].Row(cur)
	}
	ln := &l.lane[r]
	if l.bigIdx >= 0 {
		ln.bigDrain = l.bigPerCore[l.clusters[l.bigIdx*k+r].Cur()]
	}
	if l.gpuIdx >= 0 {
		ln.gpuDrain = l.gpuDrain[l.clusters[l.gpuIdx*k+r].Cur()]
	}
}

// decideGovernor hands lane r's governor its per-cluster observations
// and resets that lane's utilization windows.
func (l *lanes) decideGovernor(r int, nowUS int64) {
	// The observation buffer is lane scratch: no governor retains the
	// slice past its Decide call (they copy what they need), so reusing
	// it keeps the decision path allocation-free.
	k := l.k
	ln := &l.lane[r]
	for i := 0; i < l.nc; i++ {
		idx := i*k + r
		util, norm := 0.0, 0.0
		if l.curCapCycles[idx] > 0 {
			util = l.busyCycles[idx] / l.curCapCycles[idx]
		}
		if l.maxCapCycles[idx] > 0 {
			norm = l.busyCycles[idx] / l.maxCapCycles[idx]
		}
		if util > 1 {
			util = 1
		}
		if norm > 1 {
			norm = 1
		}
		norm = l.utilEWMA[idx].Push(norm)
		l.lastUtil[idx] = util
		ln.obs[i] = governor.Observation{Cluster: l.clusters[idx], Util: util, NormUtil: norm}
		l.busyCycles[idx] = 0
		l.curCapCycles[idx] = 0
		l.maxCapCycles[idx] = 0
	}
	ln.gov.Decide(nowUS, ln.obs)
}

// snapshot builds lane r's controller view of the platform. It
// assembles into the lane's scratch snapshot rather than a local:
// taking the address of a local for the SnapshotFault hook would make
// every snapshot escape to the heap — one allocation per
// Observe/Control, which the controller-path zero-alloc pin forbids.
func (l *lanes) snapshot(r int, nowUS int64, fps float64, app workload.App, tempBig, tempDev float64) ctrl.Snapshot {
	k := l.k
	ln := &l.lane[r]
	for i := 0; i < l.nc; i++ {
		idx := i*k + r
		c := l.clusters[idx]
		ln.views[i] = ctrl.ClusterView{
			Name:     c.Name,
			IsGPU:    c.Kind == soc.KindGPU,
			NumOPPs:  c.NumOPPs(),
			CurIdx:   c.Cur(),
			CapIdx:   c.Cap(),
			FloorIdx: c.Floor(),
			FreqKHz:  c.FreqKHz(),
			OPPKHz:   l.opps[i],
			Util:     l.lastUtil[idx],
			NormUtil: l.utilEWMA[idx].Value(),
		}
	}
	ln.snap = ctrl.Snapshot{
		NowUS:        nowUS,
		FPS:          fps,
		PowerW:       ln.lastPowerW,
		TempBigC:     tempBig,
		TempDeviceC:  tempDev,
		AmbientC:     *l.ambientC,
		AppName:      app.Name(),
		AppClassGame: app.Class() == workload.ClassGame,
		Clusters:     ln.views,
	}
	if f := ln.cfg.SnapshotFault; f != nil {
		f(&ln.snap)
	}
	return ln.snap
}

// sample records one trace row for lane r. The per-cluster vectors are
// sliced out of the run's bulk buffers (sized in begin for the record
// cadence): no per-sample allocation, and the three-index caps keep
// later appends from aliasing earlier samples even if an odd cadence
// outgrows the estimate.
func (l *lanes) sample(r int, nowUS int64, app workload.App, inter workload.Interaction, fps, powerW, tb, td float64) Sample {
	s := Sample{
		TimeUS:      nowUS,
		App:         app.Name(),
		Interaction: inter.String(),
		FPS:         fps,
		PowerW:      powerW,
		TempBigC:    tb,
		TempDevC:    td,
	}
	k := l.k
	ln := &l.lane[r]
	ints := ln.sampleInts
	base := len(ints)
	for i := 0; i < l.nc; i++ {
		ints = append(ints, l.clusters[i*k+r].FreqKHz())
	}
	mid := len(ints)
	for i := 0; i < l.nc; i++ {
		ints = append(ints, l.clusters[i*k+r].Cap())
	}
	end := len(ints)
	ln.sampleInts = ints
	s.FreqKHz = ints[base:mid:mid]
	s.CapIdx = ints[mid:end:end]
	utils := ln.sampleUtils
	ub := len(utils)
	for i := 0; i < l.nc; i++ {
		utils = append(utils, l.lastUtil[i*k+r])
	}
	ln.sampleUtils = utils
	s.Util = utils[ub:len(utils):len(utils)]
	return s
}

// lockstepCompatible reports why cfg cannot share a lockstep structure
// with base: any divergence in timeline shape, chip OPP tables, power
// constants, thermal network, sensor blend, panel rate or schedules.
// Seeds, governors/controllers, cadences and fault hooks are free to
// differ per lane; every lane shares the fixed tick.
func lockstepCompatible(base, cfg *Config) error {
	if err := timelinesStructEqual(base.Timeline, cfg.Timeline); err != nil {
		return err
	}
	if err := chipsStructEqual(base.Chip, cfg.Chip); err != nil {
		return err
	}
	if cfg.Power.BaseW != base.Power.BaseW {
		return fmt.Errorf("base power %v differs from lane 0's %v", cfg.Power.BaseW, base.Power.BaseW)
	}
	for i, c := range base.Chip.Clusters {
		if !base.Power.Table(c).Equal(cfg.Power.Table(cfg.Chip.Clusters[i])) {
			return fmt.Errorf("power table for cluster %q differs from lane 0", c.Name)
		}
	}
	if !base.Thermal.StructEqual(cfg.Thermal) {
		return fmt.Errorf("thermal network differs from lane 0")
	}
	if !base.DevSense.BlendEqual(cfg.DevSense) {
		return fmt.Errorf("device-sensor blend differs from lane 0")
	}
	if cfg.Display.RefreshHz != base.Display.RefreshHz {
		return fmt.Errorf("panel rate %d Hz differs from lane 0's %d Hz", cfg.Display.RefreshHz, base.Display.RefreshHz)
	}
	if (base.Ambient == nil) != (cfg.Ambient == nil) {
		return fmt.Errorf("ambient schedule presence differs from lane 0")
	}
	if base.Ambient != nil {
		as, bs := base.Ambient.Steps(), cfg.Ambient.Steps()
		if len(as) != len(bs) {
			return fmt.Errorf("ambient schedule differs from lane 0")
		}
		for i := range as {
			if as[i] != bs[i] {
				return fmt.Errorf("ambient schedule differs from lane 0")
			}
		}
	}
	if (base.Refresh == nil) != (cfg.Refresh == nil) {
		return fmt.Errorf("refresh schedule presence differs from lane 0")
	}
	if base.Refresh != nil {
		as, bs := base.Refresh.Steps(), cfg.Refresh.Steps()
		if len(as) != len(bs) {
			return fmt.Errorf("refresh schedule differs from lane 0")
		}
		for i := range as {
			if as[i] != bs[i] {
				return fmt.Errorf("refresh schedule differs from lane 0")
			}
		}
	}
	return nil
}

func timelinesStructEqual(a, b *session.Timeline) error {
	if len(a.Scripts) != len(b.Scripts) {
		return fmt.Errorf("timeline has %d scripts, lane 0 has %d", len(b.Scripts), len(a.Scripts))
	}
	for si := range a.Scripts {
		sa, sb := &a.Scripts[si], &b.Scripts[si]
		if sa.App.Name() != sb.App.Name() {
			return fmt.Errorf("script %d app %q differs from lane 0's %q", si, sb.App.Name(), sa.App.Name())
		}
		if len(sa.Phases) != len(sb.Phases) {
			return fmt.Errorf("script %d phase count differs from lane 0", si)
		}
		for pi := range sa.Phases {
			if sa.Phases[pi] != sb.Phases[pi] {
				return fmt.Errorf("script %d phase %d differs from lane 0", si, pi)
			}
		}
	}
	return nil
}

func chipsStructEqual(a, b *soc.Chip) error {
	if len(a.Clusters) != len(b.Clusters) {
		return fmt.Errorf("chip has %d clusters, lane 0 has %d", len(b.Clusters), len(a.Clusters))
	}
	for i, ca := range a.Clusters {
		cb := b.Clusters[i]
		if ca.Name != cb.Name || ca.Kind != cb.Kind || ca.Cores != cb.Cores || ca.IPC != cb.IPC {
			return fmt.Errorf("cluster %d (%q) differs from lane 0", i, cb.Name)
		}
		if ca.NumOPPs() != cb.NumOPPs() {
			return fmt.Errorf("cluster %q OPP count differs from lane 0", cb.Name)
		}
		for j := 0; j < ca.NumOPPs(); j++ {
			if ca.OPPAt(j) != cb.OPPAt(j) {
				return fmt.Errorf("cluster %q OPP %d differs from lane 0", cb.Name, j)
			}
		}
	}
	return nil
}

// checkDistinctLanes rejects configs that share mutable subsystem
// instances between lanes: a shared chip, display, governor, thermal
// model, controller or app would make the lanes stomp each other's
// state mid-tick. (Schedules are fine to share — the core only walks
// lane 0's — and so is DevSense, which the batch reads structurally.)
func checkDistinctLanes(cfgs []Config) error {
	chips := make(map[*soc.Chip]int, len(cfgs))
	therms := make(map[*thermal.Model]int, len(cfgs))
	disps := make(map[*display.Pipeline]int, len(cfgs))
	govs := make(map[governor.Governor]int, len(cfgs))
	ctrls := make(map[ctrl.Controller]int, len(cfgs))
	apps := make(map[workload.App]int, len(cfgs))
	for r := range cfgs {
		cfg := &cfgs[r]
		if p, dup := chips[cfg.Chip]; dup {
			return fmt.Errorf("sim: batch lanes %d and %d share a chip", p, r)
		}
		chips[cfg.Chip] = r
		if p, dup := therms[cfg.Thermal]; dup {
			return fmt.Errorf("sim: batch lanes %d and %d share a thermal model", p, r)
		}
		therms[cfg.Thermal] = r
		if p, dup := disps[cfg.Display]; dup {
			return fmt.Errorf("sim: batch lanes %d and %d share a display pipeline", p, r)
		}
		disps[cfg.Display] = r
		if p, dup := govs[cfg.Governor]; dup {
			return fmt.Errorf("sim: batch lanes %d and %d share a governor", p, r)
		}
		govs[cfg.Governor] = r
		if cfg.Controller != nil {
			if p, dup := ctrls[cfg.Controller]; dup {
				return fmt.Errorf("sim: batch lanes %d and %d share a controller", p, r)
			}
			ctrls[cfg.Controller] = r
		}
		for si := range cfg.Timeline.Scripts {
			app := cfg.Timeline.Scripts[si].App
			if p, dup := apps[app]; dup && p != r {
				return fmt.Errorf("sim: batch lanes %d and %d share app instance %q — compile one timeline per lane", p, r, app.Name())
			}
			apps[app] = r
		}
	}
	return nil
}

// chipActuator implements ctrl.Actuator on the chip.
type chipActuator struct{ chip *soc.Chip }

func (a chipActuator) SetCap(cluster string, idx int) {
	if c := a.chip.Cluster(cluster); c != nil {
		c.SetCap(idx)
	}
}

func (a chipActuator) SetFloor(cluster string, idx int) {
	if c := a.chip.Cluster(cluster); c != nil {
		c.SetFloor(idx)
	}
}

func (a chipActuator) Pin(cluster string, idx int) {
	if c := a.chip.Cluster(cluster); c != nil {
		// Order matters: widen first so the clamp cannot bite.
		c.SetFloor(0)
		c.SetCap(idx)
		c.SetFloor(idx)
	}
}
