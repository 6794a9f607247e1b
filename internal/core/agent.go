package core

import (
	"math/rand"
	"sort"

	"nextdvfs/internal/ctrl"
	"nextdvfs/internal/learner"
)

// The paper's fixed agent constants (Section IV): FPS sampling every
// 25 ms, a decision every 100 ms, the Eq. 3 learning rate, and the
// exploit ε a trained table runs at. The training-time ε schedule lives
// in internal/learner.
const (
	observeUS      = 25_000
	controlUS      = 100_000
	alpha          = 0.30
	exploitEpsilon = 0.02
)

// Convergence: training is declared complete when the exponentially
// averaged rate of greedy-action flips (how often an update changes a
// state's argmax) drops below convergeFlipTol after at least
// convergeMinSteps updates. Unlike a raw TD-error threshold, the flip
// rate is robust to the reward spikes at interaction-phase boundaries,
// and it naturally scales with the state-space size — which is exactly
// the training-time-vs-quantization trade-off the paper's Fig. 6
// sweeps.
const (
	convergeFlipTol  = 0.015
	convergeMinSteps = 3500
)

// AgentConfig parameterizes the Next agent. Defaults follow the paper:
// 25 ms FPS sampling into a 4 s window, 100 ms control period,
// Q-learning with PPDW reward over the quantized state space.
type AgentConfig struct {
	State  StateSpaceConfig
	Reward RewardConfig

	// Gamma is the discount (Eq. 3).
	Gamma float64

	// WindowSamples is the frame-window length (160 = 4 s / 25 ms). The
	// mode is trusted once a quarter of the window has filled.
	WindowSamples int

	// UseMeanTarget replaces the paper's mode-of-window target with the
	// window mean (ablation).
	UseMeanTarget bool

	// Learner names the TD update rule from the learner registry
	// ("" = "watkins", the paper's Eq. 3 — bit-identical to the
	// pre-registry agent). See learner.Names().
	Learner string

	// Explorer names the exploration strategy from the explorer
	// registry ("" = "egreedy", the paper's schedule). See
	// learner.ExplorerNames().
	Explorer string

	// Seed drives exploration.
	Seed int64
}

// DefaultAgentConfig returns the paper-faithful configuration.
func DefaultAgentConfig() AgentConfig {
	return AgentConfig{
		State:         DefaultStateSpaceConfig(),
		Reward:        DefaultRewardConfig(),
		Gamma:         0.90,
		WindowSamples: 160,
	}
}

// Agent is the Next controller (implements ctrl.Controller). One agent
// manages one device; it keeps a learner per application (a Q-table, or
// two for "doubleq"), trains apps that have never been seen, and
// exploits trained ones.
type Agent struct {
	cfg AgentConfig
	rng *rand.Rand

	space  *StateSpace
	window *FrameWindow

	tables map[string]*AppTable
	cur    *AppTable

	// exploit is the post-convergence selector (fixed ε, no decay) —
	// one instance, shared across apps, so the trained-path decision
	// costs no allocation.
	exploit learner.EpsilonGreedy

	prevValid  bool
	prevState  StateKey
	prevAction int
	lastCtlUS  int64
}

// AppTable is a per-application learner plus training bookkeeping.
type AppTable struct {
	App string
	// Table is the primary Q-table (the learner's Tables()[0]) — the
	// view persistence metadata, fleet merging and reporting use.
	Table *QTable
	// Trained is latched once convergence is detected (or set when a
	// trained table is installed); a trained table runs at the exploit ε.
	Trained bool

	learner  learner.Learner
	explorer learner.Explorer
	// pending holds an installed snapshot until the first Control step
	// knows the platform's action space and can build the learner.
	pending *learner.TableSet

	// flipEWMA is the exponentially averaged greedy-action flip rate —
	// the convergence signal.
	flipEWMA   float64
	flipSeeded bool
}

// Learner exposes the app's learner (nil until the first control step
// builds it).
func (t *AppTable) Learner() learner.Learner { return t.learner }

// NewAgent builds an agent with the given configuration. Unknown
// learner or explorer names panic: agent wiring is code, and every
// input surface (facade options, CLI flags, grids) validates names
// against the registries before constructing an agent.
func NewAgent(cfg AgentConfig) *Agent {
	if !learner.Known(cfg.Learner) {
		panic("core: unknown learner " + cfg.Learner)
	}
	if !learner.KnownExplorer(cfg.Explorer) {
		panic("core: unknown explorer " + cfg.Explorer)
	}
	return &Agent{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		window:  NewFrameWindow(cfg.WindowSamples, cfg.WindowSamples/4),
		tables:  make(map[string]*AppTable),
		exploit: learner.EpsilonGreedy{Epsilon: exploitEpsilon, EpsilonMin: exploitEpsilon},
	}
}

// Name implements ctrl.Controller.
func (a *Agent) Name() string { return "next" }

// ObserveIntervalUS implements ctrl.Controller.
func (a *Agent) ObserveIntervalUS() int64 { return observeUS }

// ControlIntervalUS implements ctrl.Controller.
func (a *Agent) ControlIntervalUS() int64 { return controlUS }

// Observe implements ctrl.Controller: push the 25 ms FPS sample into
// the frame window.
func (a *Agent) Observe(snap ctrl.Snapshot) {
	a.window.Push(snap.FPS)
}

// AppChanged implements ctrl.Controller: switch (or create) the app's
// learner and clear episode state. The frame window resets because the
// target FPS of the previous app is meaningless for the next, and the
// outgoing learner's episode state (n-step buffers) flushes — a return
// must never straddle two applications.
func (a *Agent) AppChanged(name string, _ bool) {
	if a.cur != nil && a.cur.learner != nil {
		a.cur.learner.Reset()
	}
	a.cur = a.tableFor(name)
	a.window.Reset()
	a.prevValid = false
	// Training time must not leak across apps: the gap since the
	// previous app's last control step belongs to nobody.
	a.lastCtlUS = 0
}

func (a *Agent) tableFor(name string) *AppTable {
	if t, ok := a.tables[name]; ok {
		return t
	}
	t := &AppTable{
		App:      name,
		explorer: learner.MustExplorer(a.cfg.Explorer),
	}
	a.tables[name] = t
	return t
}

// ensureLearner builds the app's learner once the action space is
// known, adopting any installed snapshot (persisted or federated
// tables). A snapshot that names a non-default learner carries that
// identity with it: a doubleq set loaded into a default-configured
// agent keeps running doubleq for that app — silently collapsing it to
// a single table would drop estimator B and the next save would make
// the loss permanent. Legacy single-table sets (learner "watkins")
// wrap into whatever the agent is configured with, preserving the
// historical install semantics.
func (a *Agent) ensureLearner(t *AppTable) {
	if t.learner != nil {
		return
	}
	set := t.pending
	if set == nil && t.Table != nil {
		set = learner.SingleTableSet(t.Table)
	}
	name := a.cfg.Learner
	if set != nil && learner.Normalize(set.Learner) != learner.DefaultLearner {
		name = set.Learner
	}
	t.learner = learner.Must(name, a.space.Actions())
	if set != nil {
		if err := t.learner.Restore(set); err != nil {
			// Incompatible snapshot — typically a table trained on a
			// platform with a different action space (stale store dir).
			// Such a policy cannot drive this chip; do what a real
			// device would do with a table for different hardware:
			// discard it and train fresh. A failed Restore may leave
			// the learner half-adopted, so rebuild it cleanly.
			t.learner = learner.Must(a.cfg.Learner, a.space.Actions())
			t.Trained = false
		}
		t.pending = nil
	}
	t.Table = t.learner.Tables()[0].Table
}

// Control implements ctrl.Controller: one TD-learning step per 100 ms.
func (a *Agent) Control(snap ctrl.Snapshot, act ctrl.Actuator) {
	if a.cur == nil {
		a.AppChanged(snap.AppName, snap.AppClassGame)
	}
	if a.space == nil {
		opps := make([]int, len(snap.Clusters))
		for i, c := range snap.Clusters {
			opps[i] = c.NumOPPs
		}
		a.space = NewStateSpace(opps, a.cfg.State)
	}
	t := a.cur
	a.ensureLearner(t)

	// Exploring starts: early in training, begin each episode from
	// random caps so the walk visits operating points the ±1-step
	// action set would take thousands of steps to reach. Gated on the
	// exploration schedule so a mostly-learned policy (or a live user
	// session) never gets a random frequency jolt.
	if !a.prevValid && !t.Trained && t.explorer.Rate() > 0.15 {
		for _, c := range snap.Clusters {
			act.SetCap(c.Name, a.rng.Intn(c.NumOPPs))
		}
	}

	var target float64
	if a.cfg.UseMeanTarget {
		target = float64(a.window.MeanTarget())
	} else {
		target = float64(a.window.Target())
	}
	state := a.space.Key(snap, target)
	reward := a.cfg.Reward.Reward(snap.FPS, target, snap.PowerW, snap.TempBigC, snap.AmbientC)

	// Choose the next action first (SARSA's update needs the executed
	// successor action; for Q-learning the order is immaterial).
	var action int
	if t.Trained {
		action = t.learner.SelectAction(&a.exploit, state, a.rng)
	} else {
		action = t.learner.SelectAction(t.explorer, state, a.rng)
	}

	// Learn from the transition that produced this observation. Online
	// RL keeps refining after convergence (at exploit ε); "trained" only
	// stops the training-time accounting and the exploration schedule.
	if a.prevValid {
		// The convergence signal measures greedy-action flips at the
		// state the update actually modifies — a.prevState for one-step
		// rules, the oldest buffered transition for n-step returns
		// (UpdateTargeter). While an n-step learner is still buffering,
		// no update happens and no convergence sample is taken.
		flipState, applies := a.prevState, true
		if ut, ok := t.learner.(learner.UpdateTargeter); ok {
			flipState, applies = ut.NextUpdateTarget()
		}
		var bestBefore int
		if applies {
			bestBefore, _ = t.learner.Greedy(flipState)
		}
		t.learner.Update(a.prevState, a.prevAction, reward, state, action, alpha, a.cfg.Gamma, a.rng)
		if applies && !t.Trained {
			bestAfter, _ := t.learner.Greedy(flipState)
			a.trackConvergence(t, bestBefore != bestAfter)
		}
	}

	// Account training time while the table is still learning.
	if !t.Trained && a.lastCtlUS > 0 && snap.NowUS > a.lastCtlUS {
		t.Table.TrainedUS += snap.NowUS - a.lastCtlUS
	}
	a.lastCtlUS = snap.NowUS

	Action(action).Apply(snap, act)
	a.prevState = state
	a.prevAction = action
	a.prevValid = true
}

// trackConvergence updates the flip-rate EWMA and latches Trained when
// the greedy policy has stopped flipping.
func (a *Agent) trackConvergence(t *AppTable, flipped bool) {
	const flipAlpha = 1.0 / 400
	f := 0.0
	if flipped {
		f = 1
	}
	if !t.flipSeeded {
		t.flipEWMA = 1 // assume unstable until proven otherwise
		t.flipSeeded = true
	}
	t.flipEWMA += flipAlpha * (f - t.flipEWMA)

	if t.Table.Steps >= convergeMinSteps && t.flipEWMA < convergeFlipTol && !t.Trained {
		t.Trained = true
		if t.Table.ConvergedAtUS == 0 {
			t.Table.ConvergedAtUS = t.Table.TrainedUS
		}
	}
}

// Reset implements ctrl.Controller: clears per-session episode state —
// including every learner's transient buffers — while keeping all
// learned Q-tables (the paper stores tables across sessions; training
// happens once per app).
func (a *Agent) Reset() {
	a.window.Reset()
	a.prevValid = false
	a.lastCtlUS = 0
	a.cur = nil
	for _, t := range a.tables {
		if t.learner != nil {
			t.learner.Reset()
		}
	}
}

// TableFor exposes the app's table (nil if the app was never seen).
func (a *Agent) TableFor(app string) *AppTable {
	return a.tables[app]
}

// Apps lists the applications the agent has tables for.
func (a *Agent) Apps() []string {
	names := make([]string, 0, len(a.tables))
	for n := range a.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SnapshotFor captures the app's complete learner table state for
// persistence (nil if the app was never seen or holds no tables). The
// set aliases live tables; clone before mutating.
func (a *Agent) SnapshotFor(app string) *learner.TableSet {
	t := a.tables[app]
	if t == nil {
		return nil
	}
	switch {
	case t.learner != nil:
		return t.learner.Snapshot()
	case t.pending != nil:
		return t.pending
	case t.Table != nil:
		return learner.SingleTableSet(t.Table)
	}
	return nil
}

// InstallTableSet installs (or replaces) an app's complete learner
// state — the loading path for persisted or cloud/federated-trained
// tables. The learner re-wraps the set lazily at the next control step
// (when the platform's action space is known); a single-role set
// installs into any learner, with multi-table rules bootstrapping
// their extra estimators from the primary.
func (a *Agent) InstallTableSet(app string, set *learner.TableSet, trained bool) {
	t := a.tableFor(app)
	t.pending = set
	t.Table = set.Primary()
	t.learner = nil // re-wrapped lazily around the new set
	t.Trained = trained
}

// Config returns the agent's configuration (read-only copy).
func (a *Agent) Config() AgentConfig { return a.cfg }
