package exp

import (
	"fmt"
	"io"

	"nextdvfs/internal/batch"
	"nextdvfs/internal/learner"
	"nextdvfs/internal/platform"
	"nextdvfs/internal/scenario"
	"nextdvfs/internal/sim"
)

// SeedSweepOptions sizes a seed sweep: one scenario, one platform, one
// scheme, Runs engine seeds. This is the canonical lockstep-batching
// shape — every run shares the scenario's compiled structure (phase
// layout, ambient and refresh schedules) and differs only in the engine
// seed that drives jitter, input timing and exploration.
type SeedSweepOptions struct {
	// Scenario names the preset to sweep ("" = mixed-day).
	Scenario string
	// Platform names the registry device ("" = note9).
	Platform string
	// Scheme names the management stack ("" = schedutil).
	Scheme string
	// Learner / Explorer configure agent-training schemes ("" =
	// watkins / egreedy); governor schemes ignore them.
	Learner  string
	Explorer string
	// Seed is the structural seed: it fixes the compiled scenario shape
	// every run replays, and run i executes with engine seed Seed+i.
	Seed int64
	// Runs is the sweep width (0 → 8).
	Runs int
	// Parallel sizes the worker pool (0 = GOMAXPROCS).
	Parallel int
	// DurationScale shrinks the scenario (0 or 1 = full length).
	DurationScale float64
	// TrainSessions is how many sessions train an agent scheme's agent
	// per run (0 → 6).
	TrainSessions int
	// Lockstep steps all runs through one sim.BatchEngine instead of
	// one scalar engine each. Rows are byte-identical either way — the
	// batched engine is pinned bit-identical to scalar runs — so this
	// is purely a throughput knob.
	Lockstep bool
}

func (o *SeedSweepOptions) defaults() {
	if o.Scenario == "" {
		o.Scenario = "mixed-day"
	}
	if o.Platform == "" {
		o.Platform = platform.DefaultName
	}
	if o.Scheme == "" {
		o.Scheme = "schedutil"
	}
	if o.Runs <= 0 {
		o.Runs = 8
	}
	if o.TrainSessions <= 0 {
		o.TrainSessions = 6
	}
}

// SeedSweepRow is one run's outcome.
type SeedSweepRow struct {
	Seed   int64
	Result sim.Result
}

// SeedSweep runs the scenario Runs times with consecutive engine seeds
// over a shared compiled structure and returns rows in seed order.
func SeedSweep(opts SeedSweepOptions) ([]SeedSweepRow, error) {
	opts.defaults()
	scn, err := scenario.Get(opts.Scenario)
	if err != nil {
		return nil, err
	}
	scn = scenario.Scaled(scn, opts.DurationScale)
	plat, err := platform.Get(opts.Platform)
	if err != nil {
		return nil, err
	}
	spec, err := GetScheme(opts.Scheme)
	if err != nil {
		return nil, err
	}
	lrn := ""
	if spec.TrainsAgent {
		if err := learner.CheckNames(opts.Learner, opts.Explorer); err != nil {
			return nil, fmt.Errorf("exp: %w", err)
		}
		lrn = learner.Normalize(opts.Learner)
	}

	jobs := make([]batch.Job, opts.Runs)
	for i := range jobs {
		engineSeed := opts.Seed + int64(i)
		jobs[i] = batch.Job{
			App:      scn.Name,
			Scheme:   spec.Name,
			Platform: plat.Name,
			Seed:     engineSeed,
			// The scenario compiles at the shared structural seed in
			// every lane (identical phase structure and schedules, fresh
			// app instances); the lane's own engine seed also seeds its
			// agent's training.
			Build: func() (sim.Config, error) {
				return laneConfig(scn, plat, spec, lrn, opts.Explorer, engineSeed, opts.Seed, engineSeed, opts.TrainSessions)
			},
		}
		if opts.Lockstep {
			jobs[i].LockstepKey = fmt.Sprintf("sweep|%s|%s|%s|%d", scn.Name, plat.Name, spec.Name, opts.Seed)
		}
	}
	results := batch.Run(jobs, batch.Options{Parallel: opts.Parallel})
	rows := make([]SeedSweepRow, len(results))
	for i, r := range results {
		if r.Err != "" {
			return nil, fmt.Errorf("exp: sweep seed %d: %s", r.Seed, r.Err)
		}
		rows[i] = SeedSweepRow{Seed: r.Seed, Result: r.Result}
	}
	return rows, nil
}

// WriteSeedSweep prints per-seed rows and an unweighted mean line — the
// printer cmd/nextbench -sweep uses.
func WriteSeedSweep(w io.Writer, rows []SeedSweepRow) {
	fmt.Fprintf(w, "%-8s %9s %9s %9s %9s %8s %10s\n",
		"seed", "avgP(W)", "peakP(W)", "bigPk°C", "devPk°C", "actFPS", "energy(J)")
	var mp, mpk, mb, md, mf, me float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %9.3f %9.2f %9.1f %9.1f %8.1f %10.0f\n",
			r.Seed, r.Result.AvgPowerW, r.Result.PeakPowerW,
			r.Result.PeakTempBigC, r.Result.PeakTempDevC,
			r.Result.ActiveAvgFPS, r.Result.EnergyJ)
		mp += r.Result.AvgPowerW
		mpk += r.Result.PeakPowerW
		mb += r.Result.PeakTempBigC
		md += r.Result.PeakTempDevC
		mf += r.Result.ActiveAvgFPS
		me += r.Result.EnergyJ
	}
	if n := float64(len(rows)); n > 0 {
		fmt.Fprintf(w, "%-8s %9.3f %9.2f %9.1f %9.1f %8.1f %10.0f\n",
			"mean", mp/n, mpk/n, mb/n, md/n, mf/n, me/n)
	}
}
