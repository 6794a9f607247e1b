package sim

import "nextdvfs/internal/workload"

// Engine executes one configured simulation. Create with New, run with
// Run. Engines are single-goroutine; build one per concurrent run.
//
// Engine is the one-lane case of the engine core, with scalar kernels:
// the App interface over the standard Rand for the workload, one
// power.Table evaluation per cluster, thermal.Model.Step and the
// device sensor's scalar read.
type Engine struct {
	lanes
	cfg      *Config   // the one lane's config
	powerBuf []float64 // per thermal node: this tick's deposited watts
}

// New builds an engine; the config is validated and defaulted.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	e := &Engine{}
	e.init([]Config{cfg}, &cfg.Thermal.AmbientC)
	e.cfg = e.lane[0].cfg
	e.powerBuf = make([]float64, cfg.Thermal.NumNodes())
	return e, nil
}

// Run executes the configured session and returns its Result.
func (e *Engine) Run() Result {
	cfg := e.cfg
	e.begin()
	cfg.Thermal.Reset()

	now := int64(0)
	rng := e.lane[0].rng
	for {
		now += tickUS
		si, inter, ok := e.enter(now)
		if !ok {
			break
		}
		app := e.apps[si] // one lane: script si's app sits at index si
		demand := app.Tick(now, tickUS, inter, rng)
		if e.frameSlot(0, demand.WantFrame) {
			e.startFrame(0, app.StartFrame(inter, rng))
		}
		rendering := e.render(0)

		p := e.integratePower(demand, inter == workload.InterOff)
		cfg.Thermal.Step(dtSec, e.powerBuf)
		tb := cfg.Thermal.TempC(e.bigTempI)
		td := cfg.DevSense.ReadC()
		e.finishTick(0, now, app, inter, p, tb, td, rendering || demand.WantFrame)
	}
	return e.finish()[0]
}

// integratePower computes this tick's device power, charges background
// utilization, and fills the thermal power buffer. Returns total watts.
// With one lane, cluster i's core state sits at index i.
func (e *Engine) integratePower(demand workload.Demand, screenOff bool) float64 {
	cfg := e.cfg
	baseW := cfg.Power.BaseW
	if screenOff {
		// The panel and its rail dominate base power; screen-off sheds
		// most of it (the remainder is radios, sensors, always-on logic).
		baseW *= screenOffBaseFrac
	}
	total := baseW
	clear(e.powerBuf)
	if e.skinIdx >= 0 {
		e.powerBuf[e.skinIdx] = baseW * skinPowerFrac
	}

	for i, c := range e.clusters {
		// Background demand is an absolute rate: a fraction of MAX
		// capacity, clipped by what the current clock can deliver.
		bg := 0.0
		switch e.bgSel[i] {
		case bgBig:
			bg = demand.BigBg
		case bgLittle:
			bg = demand.LittleBg
		case bgGPU:
			bg = demand.GPUBg
		}
		capCur := e.capCurTick[i]
		capMax := e.maxCapTick[i]
		// Background work takes whatever capacity the render thread
		// left this tick (UI priority wins on Android).
		avail := capCur - e.tickRender[i]
		if avail < 0 {
			avail = 0
		}
		bgCycles := bg * capMax
		if bgCycles > avail {
			bgCycles = avail
		}
		e.busyCycles[i] += bgCycles
		e.curCapCycles[i] += capCur
		e.maxCapCycles[i] += capMax

		// Window-average utilization since the last governor decision;
		// converges within a governor interval and smooths tick noise.
		util := 0.0
		if e.curCapCycles[i] > 0 {
			util = e.busyCycles[i] / e.curCapCycles[i]
		}
		if util > 1 {
			util = 1
		}
		e.lastUtil[i] = util

		nodeTemp := cfg.Thermal.AmbientC
		node := e.nodeIdx[i]
		if node >= 0 {
			nodeTemp = cfg.Thermal.TempC(node)
		}
		w := e.powTbl[i].Power(c.Cur(), util, nodeTemp)
		total += w
		if node >= 0 {
			e.powerBuf[node] += w
		} else if e.skinIdx >= 0 {
			e.powerBuf[e.skinIdx] += w
		}
	}
	return total
}
