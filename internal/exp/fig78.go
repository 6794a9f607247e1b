package exp

import (
	"math/rand"

	"nextdvfs/internal/batch"
	"nextdvfs/internal/core"
	"nextdvfs/internal/platform"
	"nextdvfs/internal/session"
	"nextdvfs/internal/sim"
	"nextdvfs/internal/workload"
)

// AppRow is one application's results across the three schemes of
// Fig. 7 (power) and Fig. 8 (temperatures). IntQoS is nil for
// non-games (the baseline only manages games; the paper evaluated it
// on Lineage and PubG only).
type AppRow struct {
	App    string
	Game   bool
	Sched  sim.Result
	Next   sim.Result
	IntQoS *sim.Result

	// Fig. 7 derived numbers.
	NextPowerSavingPct   float64
	IntQoSPowerSavingPct float64 // 0 for non-games
	// Fig. 8 derived numbers (peak temperature reductions vs schedutil,
	// measured as rise over the 21 °C ambient).
	NextBigTempRedPct   float64
	NextDevTempRedPct   float64
	IntQoSBigTempRedPct float64
	IntQoSDevTempRedPct float64

	Train TrainStats
}

// EvalOptions sizes the Fig. 7 / Fig. 8 evaluation.
type EvalOptions struct {
	Seed        int64
	MaxSessions int
	SessionSecs float64
	// Platform names the registry device to evaluate on ("" = note9).
	Platform string
	// Parallel sizes the batch worker pool (0 = GOMAXPROCS, 1 =
	// sequential). Results are identical at any setting: each app trains
	// its own agent and each session run owns a private engine.
	Parallel int
}

func (o *EvalOptions) defaults() {
	if o.MaxSessions <= 0 {
		o.MaxSessions = 12
	}
	if o.SessionSecs <= 0 {
		o.SessionSecs = 120
	}
}

// Evaluate runs the full Fig. 7 / Fig. 8 matrix: for each of the six
// Play-store applications, train Next, then replay an identical
// evaluation session under schedutil, Next and (for games) Int. QoS PM.
// The per-app pipelines are independent (one fresh agent each), so they
// fan out across the batch worker pool; row order is fixed by the app
// list regardless of worker count.
func Evaluate(opts EvalOptions) []AppRow {
	opts.defaults()
	plat := platform.MustGet(opts.Platform)
	makers := []func() *workload.ProfileApp{
		workload.Facebook, workload.Lineage, workload.PubG,
		workload.Spotify, workload.Chrome, workload.YouTube,
	}
	rows := make([]AppRow, len(makers))
	batch.Map(len(makers), opts.Parallel, func(i int) {
		// The outer pool already holds the -parallel bound; the per-app
		// eval grid runs sequentially so worker counts do not multiply.
		rows[i] = evaluateAppCfg(plat, makers[i], opts, int64(i+1), nil, 1)
	})
	return rows
}

// EvaluateApp runs the Fig. 7/8 protocol for one preset app name with
// an optional agent-configuration override (used by the ablation
// benchmarks). It panics on unknown names: the callers are code.
func EvaluateApp(name string, opts EvalOptions, agentCfg *core.AgentConfig) AppRow {
	if workload.ByName(name) == nil {
		panic("exp: unknown app " + name)
	}
	opts.defaults()
	plat := platform.MustGet(opts.Platform)
	return evaluateAppCfg(plat, func() *workload.ProfileApp { return workload.ByName(name) }, opts, 99, agentCfg, opts.Parallel)
}

// evalParallel sizes the per-app eval grid's pool: 1 when an outer pool
// already enforces the -parallel bound, opts.Parallel for direct calls.
func evaluateAppCfg(plat platform.Platform, mk func() *workload.ProfileApp, opts EvalOptions, ordinal int64, agentCfg *core.AgentConfig, evalParallel int) AppRow {
	app := mk()
	name := app.Name()
	game := app.Class() == workload.ClassGame
	seed := opts.Seed + ordinal*10_000

	agent, stats := Train(mk, TrainOptions{
		MaxSessions: opts.MaxSessions,
		SessionSecs: opts.SessionSecs,
		BaseSeed:    seed,
		AgentConfig: agentCfg,
		Platform:    plat.Name,
	})

	// The evaluation sessions form a small scheme grid on the shared
	// worker pool.
	evalSeed := seed + 500
	evalTL := func() *session.Timeline {
		return session.EvalTimeline(mk(), rand.New(rand.NewSource(evalSeed)))
	}
	schemes := []string{"schedutil", "next"}
	if game {
		schemes = append(schemes, "intqospm")
	}
	res := mustResults(batch.Run(evalJobs(name, plat, evalSeed, evalTL, agent, schemes...), batch.Options{Parallel: evalParallel}))
	sched, next := res[0].Result, res[1].Result

	ambient := plat.AmbientC
	row := AppRow{
		App:                name,
		Game:               game,
		Sched:              sched,
		Next:               next,
		NextPowerSavingPct: pctLess(sched.AvgPowerW, next.AvgPowerW),
		NextBigTempRedPct:  pctLess(sched.PeakTempBigC-ambient, next.PeakTempBigC-ambient),
		NextDevTempRedPct:  pctLess(sched.PeakTempDevC-ambient, next.PeakTempDevC-ambient),
		Train:              stats,
	}
	if game {
		iq := res[2].Result
		row.IntQoS = &iq
		row.IntQoSPowerSavingPct = pctLess(sched.AvgPowerW, iq.AvgPowerW)
		row.IntQoSBigTempRedPct = pctLess(sched.PeakTempBigC-ambient, iq.PeakTempBigC-ambient)
		row.IntQoSDevTempRedPct = pctLess(sched.PeakTempDevC-ambient, iq.PeakTempDevC-ambient)
	}
	return row
}
