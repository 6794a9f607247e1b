package exp

import (
	"nextdvfs/internal/batch"
	"nextdvfs/internal/cloud"
	"nextdvfs/internal/core"
	"nextdvfs/internal/platform"
	"nextdvfs/internal/session"
	"nextdvfs/internal/workload"
)

// Fig6Point is one x-position of Fig. 6: training time at a given FPS
// state granularity, online vs cloud.
type Fig6Point struct {
	// FPSLevels is the number of distinct frame-rate values admitted
	// into the state (the paper's x-axis; 60 ⇒ no quantization).
	FPSLevels int
	// OnlineS is on-device training time in (simulated) seconds.
	OnlineS float64
	// CloudS is the user-visible wall time when the same training runs
	// in the cloud (speedup + ≤4 s communication overhead).
	CloudS float64
	// Converged reports whether the policy actually reached its plateau
	// within the session budget (false = censored at the budget).
	Converged bool
}

// Fig6Options sizes the sweep.
type Fig6Options struct {
	Seed        int64
	MaxSessions int
	SessionSecs float64
	Levels      []int
	// Repeats averages the training time over this many seeds per level
	// (tabular RL convergence is noisy; the paper reports averages).
	Repeats int
	// Platform names the registry device to sweep on ("" = note9).
	Platform string
	// Parallel sizes the batch worker pool for the level×repeat grid
	// (0 = GOMAXPROCS, 1 = sequential); every cell trains its own agent,
	// so the sweep is embarrassingly parallel and order-independent.
	Parallel int
}

func (o *Fig6Options) defaults() {
	if o.MaxSessions <= 0 {
		o.MaxSessions = 18
	}
	if o.SessionSecs <= 0 {
		o.SessionSecs = 120
	}
	if len(o.Levels) == 0 {
		// Paper x-positions: ~{1, 15, 30, 45, 60} distinct frame rates;
		// a quantizer needs ≥ 2 levels, so the first becomes 2.
		o.Levels = []int{2, 15, 30, 45, 61}
	}
	if o.Repeats <= 0 {
		o.Repeats = 3
	}
}

// Fig6 measures training time per FPS granularity as state-space
// coverage time: tabular Q-learning is trained when the agent has
// visited (and revisited) the situations the workload produces, so
// training is "complete" at the first session that discovers almost no
// new states (< 2 % growth of the visited set). Coverage time grows
// with the quantization granularity by construction — finer FPS bins
// mean more distinct states for the same behaviour — which is exactly
// the trade-off the paper's Fig. 6 sweeps.
func Fig6(opts Fig6Options) []Fig6Point {
	opts.defaults()
	plat := platform.MustGet(opts.Platform)

	// The level×repeat grid fans out across the batch pool: each cell
	// trains a private agent, and the per-level averages fold the cells
	// back in fixed (level, repeat) order so worker count cannot change
	// the floating-point sums.
	cells := make([]Fig6Point, len(opts.Levels)*opts.Repeats)
	batch.Map(len(cells), opts.Parallel, func(i int) {
		levels := opts.Levels[i/opts.Repeats]
		r := i % opts.Repeats
		cells[i] = fig6Level(plat, levels, int64(r)*31337, &opts)
	})

	points := make([]Fig6Point, 0, len(opts.Levels))
	for li, levels := range opts.Levels {
		var sumOnline float64
		converged := true
		for r := 0; r < opts.Repeats; r++ {
			p := cells[li*opts.Repeats+r]
			sumOnline += p.OnlineS
			converged = converged && p.Converged
		}
		onlineUS := int64(sumOnline / float64(opts.Repeats) * 1e6)
		points = append(points, Fig6Point{
			FPSLevels: levels,
			OnlineS:   float64(onlineUS) / 1e6,
			CloudS:    float64(cloud.DefaultTrainerConfig().WallTimeUS(onlineUS)) / 1e6,
			Converged: converged,
		})
	}
	return points
}

func fig6Level(plat platform.Platform, levels int, seedOffset int64, opts *Fig6Options) Fig6Point {
	cfg := DefaultAgentConfigFor(plat)
	cfg.State.FPSLevels = levels
	cfg.State.TargetLevels = levels
	cfg.Seed = opts.Seed + int64(levels)*1000 + seedOffset
	agent := core.NewAgent(cfg)
	appName := workload.NameFacebook

	statesBySession := make([]int, 0, opts.MaxSessions)
	for i := 1; i <= opts.MaxSessions; i++ {
		seed := cfg.Seed + int64(i)
		runOn(plat, session.AppTimeline(workload.Facebook(), opts.SessionSecs, seed), seed, agent)
		n := 0
		if tab := agent.TableFor(appName); tab != nil && tab.Table != nil {
			n = tab.Table.States()
		}
		statesBySession = append(statesBySession, n)
	}

	convergedAt := len(statesBySession) // censored by default
	converged := false
	for i := 1; i < len(statesBySession); i++ {
		grown := statesBySession[i] - statesBySession[i-1]
		if statesBySession[i] > 0 && float64(grown)/float64(statesBySession[i]) < 0.02 {
			convergedAt = i + 1
			converged = true
			break
		}
	}
	onlineUS := int64(float64(convergedAt) * opts.SessionSecs * 1e6)
	return Fig6Point{
		FPSLevels: levels,
		OnlineS:   float64(onlineUS) / 1e6,
		CloudS:    float64(cloud.DefaultTrainerConfig().WallTimeUS(onlineUS)) / 1e6,
		Converged: converged,
	}
}
