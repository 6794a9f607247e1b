package exp

import (
	"fmt"
	"io"

	"nextdvfs/internal/batch"
	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
	"nextdvfs/internal/platform"
	"nextdvfs/internal/scenario"
	"nextdvfs/internal/sim"
)

// ScenarioOptions sizes a scenario × platform × scheme × learner grid
// run.
type ScenarioOptions struct {
	Seed int64
	// Scenarios names the presets to run (nil = the whole library).
	Scenarios []string
	// Platforms names the registry devices (nil = [note9]).
	Platforms []string
	// Schemes names the management stacks per cell (nil = [schedutil,
	// next]). See Schemes() for the registry.
	Schemes []string
	// Learners names the TD update rules swept for every agent-training
	// scheme ("next") — nil = just the default watkins. Schemes that do
	// not train an agent ignore the learner dimension (one cell each).
	// See learner.Names() for the registry.
	Learners []string
	// Explorer names the exploration strategy agent cells train with
	// ("" = egreedy).
	Explorer string
	// Parallel sizes the batch worker pool (0 = GOMAXPROCS, 1 =
	// sequential). Cells are independent — each trains its own agent and
	// compiles its own timeline — so results are byte-identical at any
	// worker count.
	Parallel int
	// DurationScale shrinks every scenario (0 or 1 = full length);
	// tests and smoke runs use small factors to keep wall time bounded.
	DurationScale float64
	// TrainSessions is how many scenario sessions train each "next"
	// cell's agent (0 → 6).
	TrainSessions int
}

func (o *ScenarioOptions) defaults() {
	if len(o.Scenarios) == 0 {
		o.Scenarios = scenario.Names()
	}
	if len(o.Platforms) == 0 {
		o.Platforms = []string{platform.DefaultName}
	}
	if len(o.Schemes) == 0 {
		o.Schemes = []string{"schedutil", "next"}
	}
	if len(o.Learners) == 0 {
		o.Learners = []string{learner.DefaultLearner}
	}
	if o.TrainSessions <= 0 {
		o.TrainSessions = 6
	}
}

// ScenarioRow is one grid cell's outcome. Learner is empty for schemes
// that do not train an agent.
type ScenarioRow struct {
	Scenario string
	Platform string
	Scheme   string
	Learner  string
	Result   sim.Result
}

// pairSeed derives the base seed of scenario si × platform pi in a
// grid seeded with base. It depends on the pair only, so every scheme
// and learner of a pair replays the identical evaluation timeline (and
// their jobs can share one lockstep span).
func pairSeed(base int64, si, pi int) int64 {
	return base + int64(si)*100_003 + int64(pi)*1_009
}

// Cells expands the options' axes, as given, into grid cells in fixed
// scenario-major, platform, scheme, learner-minor order; ScenarioGrid
// fills its defaults first. Every cell of a (scenario, platform) pair
// takes pairSeed's base seed. The learner axis applies only to
// agent-training schemes, and only their cells carry the explorer: a
// governor cell has no update rule to sweep.
func (o ScenarioOptions) Cells() ([]Cell, error) {
	agentLearners := make([]string, len(o.Learners))
	for i, l := range o.Learners {
		if err := learner.CheckNames(l, o.Explorer); err != nil {
			return nil, fmt.Errorf("exp: %w", err)
		}
		agentLearners[i] = learner.Normalize(l)
	}
	var cells []Cell
	for si, sn := range o.Scenarios {
		for pi, pn := range o.Platforms {
			base := pairSeed(o.Seed, si, pi)
			for _, sch := range o.Schemes {
				spec, err := GetScheme(sch)
				if err != nil {
					return nil, err
				}
				learners, explorer := []string{""}, ""
				if spec.TrainsAgent {
					learners, explorer = agentLearners, o.Explorer
				}
				for _, l := range learners {
					cells = append(cells, Cell{Scenario: sn, Platform: pn, Scheme: spec.Name, Learner: l, Explorer: explorer,
						Seed: base, TrainSessions: o.TrainSessions, DurationScale: o.DurationScale})
				}
			}
		}
	}
	return cells, nil
}

// ScenarioGrid evaluates every cell of the options across the batch
// pool and returns rows in Cells order. All cells of a (scenario,
// platform) pair replay the byte-identical compiled timeline, so their
// rows are directly comparable. Every cell runs as its own scalar batch
// job, so agent training parallelises across the whole grid rather than
// per pair. Agent cells first train a fresh agent — with the cell's
// learner — on TrainSessions differently-seeded sessions of the same
// scenario.
func ScenarioGrid(opts ScenarioOptions) ([]ScenarioRow, error) {
	opts.defaults()
	cells, err := opts.Cells()
	if err != nil {
		return nil, err
	}
	jobs := make([]batch.Job, len(cells))
	for i, c := range cells {
		if jobs[i], err = c.Job(); err != nil {
			return nil, err
		}
	}
	results := batch.Run(jobs, batch.Options{Parallel: opts.Parallel})
	rows := make([]ScenarioRow, len(cells))
	for i, r := range results {
		if r.Err != "" {
			return nil, fmt.Errorf("exp: scenario cell %s/%s/%s: %s", r.App, r.Platform, r.Scheme, r.Err)
		}
		rows[i] = ScenarioRow{Scenario: r.App, Platform: r.Platform, Scheme: r.Scheme, Learner: cells[i].Learner, Result: r.Result}
	}
	return rows, nil
}

// ScenarioConfig compiles the scenario's structure at structSeed and
// assembles the platform's sim config at engineSeed with the
// environment schedules attached — the one place a scenario becomes a
// session. Runs that share structSeed replay identical phase
// structure and schedules (the lockstep contract); most callers pass
// one seed for both.
func ScenarioConfig(scn scenario.Scenario, plat platform.Platform, structSeed, engineSeed int64) (sim.Config, error) {
	compiled, err := scenario.Compile(scn, structSeed, plat.AmbientC)
	if err != nil {
		return sim.Config{}, err
	}
	cfg := plat.Config(compiled.Timeline, engineSeed)
	cfg.Ambient = compiled.Ambient
	cfg.Refresh = compiled.Refresh
	return cfg, nil
}

// laneConfig returns one evaluation lane: for an agent-training scheme
// it first trains a fresh agent on trainSessions sessions of the
// scenario seeded trainSeed+1…, then configures the scheme over the
// scenario's structure compiled at structSeed, run at engineSeed. Every
// call is independent — fresh agent, fresh compiled timeline — which
// is the batch.Job Build contract. Training sessions vary structurally
// with their seeds, so they run scalar; only the evaluation run is a
// lockstep candidate.
func laneConfig(scn scenario.Scenario, plat platform.Platform, spec SchemeSpec, learnerName, explorer string, trainSeed, structSeed, engineSeed int64, trainSessions int) (sim.Config, error) {
	var agent *core.Agent
	if spec.TrainsAgent {
		agent = NewDefaultAgent(plat, trainSeed, learnerName, explorer)
		for i := 1; i <= trainSessions; i++ {
			seed := trainSeed + int64(i)
			c, err := ScenarioConfig(scn, plat, seed, seed)
			if err != nil {
				return sim.Config{}, err
			}
			c.Controller = agent
			eng, err := sim.New(c)
			if err != nil {
				return sim.Config{}, err
			}
			eng.Run()
		}
	}
	cfg, err := ScenarioConfig(scn, plat, structSeed, engineSeed)
	if err != nil {
		return sim.Config{}, err
	}
	spec.Configure(&cfg, plat, agent)
	return cfg, nil
}

// WriteScenarioGrid prints the grid the way cmd/nextbench -scenarios
// does — the shared printer keeps CLI output and the byte-identity
// tests on the same bytes. The learner column appears only when the
// grid actually swept a non-default learner, so default runs print the
// historical layout byte-for-byte.
func WriteScenarioGrid(w io.Writer, rows []ScenarioRow) {
	withLearner := false
	for _, r := range rows {
		if r.Learner != "" && r.Learner != learner.DefaultLearner {
			withLearner = true
			break
		}
	}
	if withLearner {
		fmt.Fprintf(w, "%-18s %-14s %-11s %-14s %9s %9s %9s %9s %8s %10s\n",
			"scenario", "platform", "scheme", "learner", "avgP(W)", "peakP(W)", "bigPk°C", "devPk°C", "actFPS", "energy(J)")
	} else {
		fmt.Fprintf(w, "%-18s %-14s %-11s %9s %9s %9s %9s %8s %10s\n",
			"scenario", "platform", "scheme", "avgP(W)", "peakP(W)", "bigPk°C", "devPk°C", "actFPS", "energy(J)")
	}
	for _, r := range rows {
		if withLearner {
			lrn := r.Learner
			if lrn == "" {
				lrn = "-"
			}
			fmt.Fprintf(w, "%-18s %-14s %-11s %-14s %9.3f %9.2f %9.1f %9.1f %8.1f %10.0f\n",
				r.Scenario, r.Platform, r.Scheme, lrn,
				r.Result.AvgPowerW, r.Result.PeakPowerW,
				r.Result.PeakTempBigC, r.Result.PeakTempDevC,
				r.Result.ActiveAvgFPS, r.Result.EnergyJ)
		} else {
			fmt.Fprintf(w, "%-18s %-14s %-11s %9.3f %9.2f %9.1f %9.1f %8.1f %10.0f\n",
				r.Scenario, r.Platform, r.Scheme,
				r.Result.AvgPowerW, r.Result.PeakPowerW,
				r.Result.PeakTempBigC, r.Result.PeakTempDevC,
				r.Result.ActiveAvgFPS, r.Result.EnergyJ)
		}
	}
}
