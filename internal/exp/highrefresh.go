package exp

import (
	"nextdvfs/internal/batch"
	"nextdvfs/internal/platform"
	"nextdvfs/internal/session"
	"nextdvfs/internal/sim"
	"nextdvfs/internal/workload"
)

// RefreshRow is one panel refresh rate's results (extension experiment:
// the paper notes 90/120 Hz panels exist but evaluates only 60 Hz).
type RefreshRow struct {
	RefreshHz int
	Sched     sim.Result
	Next      sim.Result
	SavingPct float64
}

// HighRefreshOptions sizes the panel sweep.
type HighRefreshOptions struct {
	Seed int64
	// Platform is the base registry device whose panel is swept
	// ("" = note9); the 90/120 Hz rows are derived WithRefresh variants.
	Platform string
	// Parallel sizes the batch worker pool (0 = GOMAXPROCS); each rate
	// trains its own agent, so the rates fan out independently.
	Parallel int
}

// HighRefreshOn runs Lineage on 60/90/120 Hz panels of any base
// platform under schedutil and a trained Next agent. The agent's
// FPS quantizers span the panel rate, and the game's render loop chases
// it — the experiment shows the approach is not hard-wired to 60 Hz.
func HighRefreshOn(opts HighRefreshOptions) []RefreshRow {
	base := platform.MustGet(opts.Platform)
	rates := []int{60, 90, 120}
	rows := make([]RefreshRow, len(rates))
	batch.Map(len(rates), opts.Parallel, func(i int) {
		// The outer pool holds the -parallel bound; each rate's eval
		// pair runs sequentially so worker counts do not multiply.
		rows[i] = highRefreshRate(base, opts.Seed, rates[i])
	})
	return rows
}

func highRefreshRate(base platform.Platform, seed int64, hz int) RefreshRow {
	plat := base
	if hz != base.RefreshHz {
		plat = base.WithRefresh(hz)
	}
	mkApp := func() *workload.ProfileApp {
		p := workload.Lineage().Profile()
		p.GameFPS = hz
		// Per-frame budget shrinks with the refresh period; a panel
		// worth shipping comes with content tuned to fit it.
		scale := 60.0 / float64(hz)
		p.FrameCPUMean *= scale
		p.FrameGPUMean *= scale
		return workload.NewProfileApp(p)
	}
	mkTL := func() *session.Timeline { // 120 s of gameplay
		return &session.Timeline{Scripts: []session.Script{{
			App: mkApp(),
			Phases: []session.Phase{
				{Inter: workload.InterPlay, DurUS: session.Seconds(120)},
			},
		}}}
	}

	// The default configuration spans the variant's panel rate.
	agent := NewDefaultAgent(plat, seed+int64(hz), "", "")
	for i := 1; i <= 10; i++ {
		runOn(plat, mkTL(), seed+int64(hz)+int64(i), agent)
	}

	evalSeed := seed + int64(hz) + 999
	res := mustResults(batch.Run(evalJobs(workload.NameLineage, plat, evalSeed, mkTL, agent, "schedutil", "next"), batch.Options{Parallel: 1}))
	sched, next := res[0].Result, res[1].Result
	return RefreshRow{
		RefreshHz: hz,
		Sched:     sched,
		Next:      next,
		SavingPct: pctLess(sched.AvgPowerW, next.AvgPowerW),
	}
}
