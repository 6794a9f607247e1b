package exp

import (
	"fmt"

	"nextdvfs/internal/batch"
	"nextdvfs/internal/core"
	"nextdvfs/internal/ctrl"
	"nextdvfs/internal/platform"
	"nextdvfs/internal/session"
	"nextdvfs/internal/sim"
	"nextdvfs/internal/workload"
)

// TrainOptions controls on-device training of a Next agent.
type TrainOptions struct {
	// MaxSessions bounds training when convergence never latches.
	MaxSessions int
	// SessionSecs is the length of each training session.
	SessionSecs float64
	// BaseSeed derives per-session seeds.
	BaseSeed int64
	// AgentConfig overrides the default agent configuration.
	AgentConfig *core.AgentConfig
	// Platform names the registry device to train on ("" = note9).
	Platform string
	// Learner names the TD update rule from the learner registry
	// ("" = keep the config's, i.e. watkins by default).
	Learner string
	// Explorer names the exploration strategy ("" = keep the config's).
	Explorer string
}

func (o *TrainOptions) defaults() {
	if o.MaxSessions <= 0 {
		o.MaxSessions = 16
	}
	if o.SessionSecs <= 0 {
		o.SessionSecs = 150
	}
}

// TrainStats reports how training went.
type TrainStats struct {
	App       string
	Sessions  int
	Converged bool
	// TrainedUS is the accumulated on-device training time (the paper's
	// "training period"; ~3 min 27 s on average for a new app).
	TrainedUS int64
	States    int
	Steps     int64
}

// Train runs repeated sessions of the app on a fresh device (the
// registry platform named in the options; Note 9 by default) until the
// agent's Q-table converges (or MaxSessions elapse) and returns the
// trained agent. makeApp must return a fresh instance per call.
// Training is inherently sequential — every session mutates the same
// agent — so the parallel grain lives one level up, in the drivers that
// train independent agents (see fig78.go).
func Train(makeApp func() *workload.ProfileApp, opts TrainOptions) (*core.Agent, TrainStats) {
	opts.defaults()
	plat := platform.MustGet(opts.Platform)
	cfg := DefaultAgentConfigFor(plat)
	if opts.AgentConfig != nil {
		cfg = *opts.AgentConfig
	}
	if opts.Learner != "" {
		cfg.Learner = opts.Learner
	}
	if opts.Explorer != "" {
		cfg.Explorer = opts.Explorer
	}
	cfg.Seed = opts.BaseSeed
	agent := core.NewAgent(cfg)
	name := makeApp().Name()

	// The full session budget always runs: convergence only timestamps
	// the "trained" point (the paper's training-period measurement);
	// the remaining sessions keep refining the policy online, exactly
	// as a deployed agent would across a user's day.
	stats := TrainStats{App: name}
	for i := 1; i <= opts.MaxSessions; i++ {
		seed := opts.BaseSeed + int64(i)
		runOn(plat, session.AppTimeline(makeApp(), opts.SessionSecs, seed), seed, agent)
		stats.Sessions = i
		if tab := agent.TableFor(name); tab != nil && tab.Trained {
			stats.Converged = true
		}
	}
	if tab := agent.TableFor(name); tab != nil && tab.Table != nil {
		stats.TrainedUS = tab.Table.TrainedUS
		stats.States = tab.Table.States()
		stats.Steps = tab.Table.Steps
		if tab.Table.ConvergedAtUS > 0 {
			stats.TrainedUS = tab.Table.ConvergedAtUS
		}
	}
	return agent, stats
}

// DefaultAgentConfigFor returns the paper-default agent configuration
// adapted to a platform: on fast panels the FPS/target quantizers are
// widened to span the refresh rate — without this every frame rate
// above 60 collapses into one state bin. Every driver that builds a
// default agent for a registry platform must go through here.
func DefaultAgentConfigFor(p platform.Platform) core.AgentConfig {
	cfg := core.DefaultAgentConfig()
	if float64(p.RefreshHz) > cfg.State.MaxFPS {
		cfg.State.MaxFPS = float64(p.RefreshHz)
	}
	return cfg
}

// NewDefaultAgent builds a fresh agent on the platform's default
// configuration with the given seed, learner and explorer — the agent
// every session recipe trains unless a driver varies the configuration
// itself. Names are not checked here; callers run learner.CheckNames.
func NewDefaultAgent(p platform.Platform, seed int64, learnerName, explorer string) *core.Agent {
	cfg := DefaultAgentConfigFor(p)
	cfg.Seed = seed
	cfg.Learner = learnerName
	cfg.Explorer = explorer
	return core.NewAgent(cfg)
}

// mustResults asserts every job in a batch succeeded and returns the
// results — experiment wiring is code, not input, so a failed build is
// a panic, with the job's labels in the message.
func mustResults(res []batch.RunResult) []batch.RunResult {
	for _, r := range res {
		if r.Err != "" {
			panic(fmt.Sprintf("exp: %s/%s on %s: %s", r.App, r.Scheme, r.Platform, r.Err))
		}
	}
	return res
}

// evalJobs replays one evaluation session under each named scheme
// (agent serves the agent-training ones). Every job builds a private
// config over a freshly built timeline, so the jobs are safe to run on
// the shared worker pool.
func evalJobs(app string, plat platform.Platform, seed int64, tl func() *session.Timeline, agent *core.Agent, schemes ...string) []batch.Job {
	jobs := make([]batch.Job, len(schemes))
	for i, name := range schemes {
		spec, err := GetScheme(name)
		if err != nil {
			panic(err) // experiment wiring is code, not input
		}
		jobs[i] = batch.Job{App: app, Scheme: spec.Name, Platform: plat.Name, Seed: seed, Build: func() (sim.Config, error) {
			cfg := plat.Config(tl(), seed)
			spec.Configure(&cfg, plat, agent)
			return cfg, nil
		}}
	}
	return jobs
}

// runOn executes a timeline on the given platform with an optional
// controller (nil = bare schedutil) and an optional config mutator.
func runOn(p platform.Platform, tl *session.Timeline, seed int64, controller ctrl.Controller, mutate ...func(*sim.Config)) sim.Result {
	cfg := p.Config(tl, seed)
	if controller != nil {
		cfg.Controller = controller
	}
	for _, m := range mutate {
		m(&cfg)
	}
	eng, err := sim.New(cfg)
	if err != nil {
		panic(err) // experiment wiring is code, not input
	}
	return eng.Run()
}
