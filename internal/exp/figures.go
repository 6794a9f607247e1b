package exp

import (
	"math/rand"

	"nextdvfs/internal/core"
	"nextdvfs/internal/platform"
	"nextdvfs/internal/session"
	"nextdvfs/internal/sim"
	"nextdvfs/internal/workload"
)

// Fig1Result is the motivation trace: FPS and CPU frequencies over the
// home→Facebook→Spotify session on stock schedutil.
type Fig1Result struct {
	Result  sim.Result
	Samples []sim.Sample
}

// Fig1On reproduces the paper's Fig. 1 on any registry platform at 3 s
// sample resolution (the paper records FPS every 3 seconds for the
// figure).
func Fig1On(platformName string, seed int64) Fig1Result {
	plat := platform.MustGet(platformName)
	rng := rand.New(rand.NewSource(seed))
	tl := session.Fig1Timeline(rng)
	res := runOn(plat, tl, seed, nil, func(c *sim.Config) {
		c.RecordIntervalUS = 3_000_000
	})
	return Fig1Result{Result: res, Samples: res.Samples}
}

// Fig3Result compares schedutil against a trained Next agent on the
// Fig. 1 session.
type Fig3Result struct {
	Sched sim.Result
	Next  sim.Result
	// PowerSavingPct is the average-power saving of Next vs schedutil
	// (paper: 41.88 %).
	PowerSavingPct float64
	// AvgTempRedPct is the average big-CPU temperature reduction
	// (paper: 21.02 % vs the 52.33→41.33 °C averages).
	AvgTempRedPct float64
	// PeakTempRedPct is the peak big-CPU temperature reduction.
	PeakTempRedPct float64
	Train          []TrainStats
}

// Fig3On trains Next on the three session apps on any registry
// platform, then replays the same session under schedutil and under the
// trained agent.
func Fig3On(platformName string, seed int64) Fig3Result {
	plat := platform.MustGet(platformName)
	// One shared agent learns all three apps, as on a real device.
	agent := NewDefaultAgent(plat, seed, "", "")
	var stats []TrainStats
	for i := 1; i <= 18; i++ {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		runOn(plat, session.Fig1Timeline(rng), seed+int64(i), agent)
	}
	for _, app := range []string{workload.NameHome, workload.NameFacebook, workload.NameSpotify} {
		if tab := agent.TableFor(app); tab != nil && tab.Table != nil {
			stats = append(stats, TrainStats{
				App: app, Converged: tab.Trained,
				TrainedUS: tab.Table.TrainedUS,
				States:    tab.Table.States(), Steps: tab.Table.Steps,
			})
		}
	}

	evalSeed := seed + 1000
	sched := runOn(plat, session.Fig1Timeline(rand.New(rand.NewSource(evalSeed))), evalSeed, nil,
		func(c *sim.Config) { c.RecordIntervalUS = 1_000_000 })
	next := runOn(plat, session.Fig1Timeline(rand.New(rand.NewSource(evalSeed))), evalSeed, agent,
		func(c *sim.Config) { c.RecordIntervalUS = 1_000_000 })

	amb := plat.AmbientC
	return Fig3Result{
		Sched:          sched,
		Next:           next,
		PowerSavingPct: pctLess(sched.AvgPowerW, next.AvgPowerW),
		AvgTempRedPct:  pctLess(sched.AvgTempBigC-amb, next.AvgTempBigC-amb),
		PeakTempRedPct: pctLess(sched.PeakTempBigC-amb, next.PeakTempBigC-amb),
		Train:          stats,
	}
}

// pctLess returns the percentage by which b undercuts a.
func pctLess(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return 100 * (1 - b/a)
}

// PPDWPoint is one point of the Fig. 4 trend.
type PPDWPoint struct {
	FPS      float64
	PPDW     float64
	PowerW   float64
	TempBigC float64
	// Worst marks the analytic worst-case anchors (the paper's
	// red-marked values at FPS 0, 1 and 10).
	Worst bool
}

// Fig4Result is the PPDW-vs-FPS trend on Lineage 2 Revolution.
type Fig4Result struct {
	Points []PPDWPoint
	Bounds core.Bounds
}

// Fig4On reproduces the PPDW-vs-FPS trend on any registry platform the
// way the paper measured it: during Lineage gameplay on stock
// schedutil, where the frame rate is set by scene weight — heavy scenes push the pipeline past its VSync
// budget (low FPS at high power and temperature → low PPDW), light
// scenes ride the 60 Hz cap with idle headroom (high PPDW). The sweep
// scales the per-frame render cost to visit that scene spectrum, and
// adds the analytic worst-case anchors at FPS 0/1/10 (the paper's
// red-marked points: least frames at maximum power and temperature).
func Fig4On(platformName string, seed int64) Fig4Result {
	plat := platform.MustGet(platformName)
	weights := []float64{2.6, 2.2, 1.8, 1.5, 1.25, 1.0, 0.8, 0.6}
	var points []PPDWPoint
	var maxP, maxT float64
	for i, w := range weights {
		res := fig4Run(plat, seed+int64(i), w)
		points = append(points, PPDWPoint{
			FPS:      res.ActiveAvgFPS,
			PPDW:     core.PPDW(res.ActiveAvgFPS, res.AvgPowerW, res.AvgTempBigC, plat.AmbientC),
			PowerW:   res.AvgPowerW,
			TempBigC: res.AvgTempBigC,
		})
		if res.AvgPowerW > maxP {
			maxP = res.AvgPowerW
		}
		if res.PeakTempBigC > maxT {
			maxT = res.PeakTempBigC
		}
	}

	for _, f := range []float64{0, 1, 10} {
		points = append(points, PPDWPoint{
			FPS:      f,
			PPDW:     core.PPDW(f, maxP, maxT, plat.AmbientC),
			PowerW:   maxP,
			TempBigC: maxT,
			Worst:    true,
		})
	}
	bounds := core.NewBounds(float64(plat.RefreshHz), maxP, 1.5, maxT, 25, plat.AmbientC)
	return Fig4Result{Points: points, Bounds: bounds}
}

// fig4Run plays Lineage for 180 s under schedutil with per-frame render
// costs scaled by weight (the scene-heaviness knob).
func fig4Run(plat platform.Platform, seed int64, weight float64) sim.Result {
	p := workload.Lineage().Profile()
	p.FrameCPUMean *= weight
	p.FrameGPUMean *= weight
	app := workload.NewProfileApp(p)
	tl := &session.Timeline{Scripts: []session.Script{{
		App: app,
		Phases: []session.Phase{
			{Inter: workload.InterPlay, DurUS: session.Seconds(180)},
		},
	}}}
	return runOn(plat, tl, seed, nil)
}
