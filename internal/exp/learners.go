package exp

import (
	"fmt"
	"io"
	"math/rand"

	"nextdvfs/internal/batch"
	"nextdvfs/internal/learner"
	"nextdvfs/internal/platform"
	"nextdvfs/internal/session"
	"nextdvfs/internal/sim"
	"nextdvfs/internal/workload"
)

// LearnerGridOptions sizes the learner × app comparison grid: every
// registered (or requested) update rule trains a fresh agent on each
// app, then replays the identical evaluation session under schedutil
// and under the trained agent — the apples-to-apples answer to "would a
// different learner do better on the same state/reward design?".
type LearnerGridOptions struct {
	Seed int64
	// Learners names the update rules to compare (nil = every
	// registered learner).
	Learners []string
	// Explorer names the exploration strategy all cells train with
	// ("" = egreedy). The explorer is held fixed across the grid so the
	// comparison isolates the update rule.
	Explorer string
	// Apps names the preset applications (nil = [lineage2revolution,
	// spotify] — the paper's heavy-game and idle-waste poles).
	Apps []string
	// Platform names the registry device ("" = note9).
	Platform string
	// MaxSessions bounds training per cell (0 → 8).
	MaxSessions int
	// SessionSecs is each training session's length (0 → 120).
	SessionSecs float64
	// Parallel sizes the batch worker pool (0 = GOMAXPROCS, 1 =
	// sequential). Cells are independent, so the grid is byte-identical
	// at any worker count.
	Parallel int
}

func (o *LearnerGridOptions) defaults() {
	if len(o.Learners) == 0 {
		o.Learners = learner.Names()
	}
	if len(o.Apps) == 0 {
		o.Apps = []string{workload.NameLineage, workload.NameSpotify}
	}
	if o.MaxSessions <= 0 {
		o.MaxSessions = 8
	}
	if o.SessionSecs <= 0 {
		o.SessionSecs = 120
	}
}

// LearnerRow is one (learner, app) cell: convergence statistics from
// training plus the energy/QoS comparison of the trained agent against
// the schedutil baseline on the identical session.
type LearnerRow struct {
	Learner string
	App     string
	// Convergence.
	Converged bool
	TrainedS  float64
	States    int
	Steps     int64
	// Evaluation.
	Sched          sim.Result
	Next           sim.Result
	PowerSavingPct float64
	EnergySavedJ   float64
}

// LearnerGrid runs the learner × app grid over the batch pool and
// returns rows in fixed learner-major, app-minor order (learners in
// the requested order, which defaults to the sorted registry).
func LearnerGrid(opts LearnerGridOptions) ([]LearnerRow, error) {
	opts.defaults()
	for _, l := range opts.Learners {
		if err := learner.CheckNames(l, opts.Explorer); err != nil {
			return nil, fmt.Errorf("exp: %w", err)
		}
	}
	for _, app := range opts.Apps {
		if workload.ByName(app) == nil {
			return nil, fmt.Errorf("exp: unknown app %q", app)
		}
	}
	plat, err := platform.Get(opts.Platform)
	if err != nil {
		return nil, err
	}

	type cell struct {
		lrn string
		app string
		ai  int
	}
	cells := make([]cell, 0, len(opts.Learners)*len(opts.Apps))
	for _, l := range opts.Learners {
		for ai, app := range opts.Apps {
			cells = append(cells, cell{lrn: learner.Normalize(l), app: app, ai: ai})
		}
	}
	rows := make([]LearnerRow, len(cells))
	batch.Map(len(cells), opts.Parallel, func(i int) {
		c := cells[i]
		rows[i] = learnerCell(plat, c.lrn, opts.Explorer, c.app, c.ai, opts)
	})
	return rows, nil
}

// learnerCell trains one learner on one app and evaluates it. Seeds
// derive from the app ordinal only, so every learner trains on the same
// session stream and replays the identical evaluation timeline — the
// rows differ only through the update rule.
func learnerCell(plat platform.Platform, lrn, explorer, app string, appOrdinal int, opts LearnerGridOptions) LearnerRow {
	seed := opts.Seed + int64(appOrdinal+1)*10_000
	mk := func() *workload.ProfileApp { return workload.ByName(app) }
	agent, stats := Train(mk, TrainOptions{
		MaxSessions: opts.MaxSessions,
		SessionSecs: opts.SessionSecs,
		BaseSeed:    seed,
		Platform:    plat.Name,
		Learner:     lrn,
		Explorer:    explorer,
	})

	evalSeed := seed + 500
	evalTL := func() *session.Timeline {
		return session.EvalTimeline(mk(), rand.New(rand.NewSource(evalSeed)))
	}
	res := mustResults(batch.Run(evalJobs(app, plat, evalSeed, evalTL, agent, "schedutil", "next"), batch.Options{Parallel: 1}))
	sched, next := res[0].Result, res[1].Result

	trainedS := float64(stats.TrainedUS) / 1e6
	return LearnerRow{
		Learner:        lrn,
		App:            app,
		Converged:      stats.Converged,
		TrainedS:       trainedS,
		States:         stats.States,
		Steps:          stats.Steps,
		Sched:          sched,
		Next:           next,
		PowerSavingPct: pctLess(sched.AvgPowerW, next.AvgPowerW),
		EnergySavedJ:   sched.EnergyJ - next.EnergyJ,
	}
}

// WriteLearnerGrid prints the comparison the way cmd/nextbench
// -learners does — the shared printer keeps the CLI and the
// determinism tests on the same bytes.
func WriteLearnerGrid(w io.Writer, rows []LearnerRow) {
	fmt.Fprintf(w, "%-15s %-20s %5s %9s %7s %8s %9s %9s %7s %10s %8s %8s\n",
		"learner", "app", "conv", "train(s)", "states", "steps",
		"schedP(W)", "nextP(W)", "sav%", "energy(J)", "schedFPS", "nextFPS")
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %-20s %5v %9.0f %7d %8d %9.3f %9.3f %7.1f %10.0f %8.1f %8.1f\n",
			r.Learner, r.App, r.Converged, r.TrainedS, r.States, r.Steps,
			r.Sched.AvgPowerW, r.Next.AvgPowerW, r.PowerSavingPct, r.EnergySavedJ,
			r.Sched.ActiveAvgFPS, r.Next.ActiveAvgFPS)
	}
}
