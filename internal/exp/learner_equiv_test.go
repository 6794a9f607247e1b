package exp

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"nextdvfs/internal/core"
	"nextdvfs/internal/ctrl"
	"nextdvfs/internal/platform"
	"nextdvfs/internal/scenario"
	"nextdvfs/internal/session"
	"nextdvfs/internal/sim"
	"nextdvfs/internal/workload"
)

// refAgent is a line-for-line reimplementation of the agent's control
// loop as it existed BEFORE the learner registry: Watkins Q-learning
// (core.QTable.Update) with the ε-greedy Policy, exploring starts and
// the flip-rate convergence latch, hard-coded with no Learner/Explorer
// indirection. The differential tests drive it and the real Agent over
// identical sessions and require byte-identical results and tables —
// the pin that extracting the rule behind the interface changed no
// behavior.
// The paper's agent constants, written out here rather than read from
// core, so the reference stays independent of the agent it checks.
const (
	refObserveUS        = 25_000
	refControlUS        = 100_000
	refWindowSamples    = 160
	refWarmupSamples    = 40
	refAlpha            = 0.30
	refEpsilonStart     = 0.80
	refEpsilonMin       = 0.08
	refEpsilonDecay     = 0.9997
	refExploitEpsilon   = 0.02
	refConvergeFlipTol  = 0.015
	refConvergeMinSteps = 3500
)

type refAgent struct {
	cfg    core.AgentConfig
	rng    *rand.Rand
	space  *core.StateSpace
	window *core.FrameWindow

	tables map[string]*refTable
	cur    *refTable

	prevValid  bool
	prevState  core.StateKey
	prevAction int
	lastCtlUS  int64
}

type refTable struct {
	table   *core.QTable
	policy  core.Policy
	trained bool

	tdEWMA     float64
	tdSeeded   bool
	flipEWMA   float64
	flipSeeded bool
}

func newRefAgent(cfg core.AgentConfig) *refAgent {
	return &refAgent{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		window: core.NewFrameWindow(refWindowSamples, refWarmupSamples),
		tables: make(map[string]*refTable),
	}
}

func (a *refAgent) Name() string             { return "next" }
func (a *refAgent) ObserveIntervalUS() int64 { return refObserveUS }
func (a *refAgent) ControlIntervalUS() int64 { return refControlUS }
func (a *refAgent) Observe(s ctrl.Snapshot)  { a.window.Push(s.FPS) }
func (a *refAgent) AppChanged(n string, _ bool) {
	a.cur = a.tableFor(n)
	a.window.Reset()
	a.prevValid = false
	a.lastCtlUS = 0
}

func (a *refAgent) tableFor(name string) *refTable {
	if t, ok := a.tables[name]; ok {
		return t
	}
	t := &refTable{policy: core.Policy{
		Epsilon:    refEpsilonStart,
		EpsilonMin: refEpsilonMin,
		Decay:      refEpsilonDecay,
	}}
	a.tables[name] = t
	return t
}

func (a *refAgent) Control(snap ctrl.Snapshot, act ctrl.Actuator) {
	if a.cur == nil {
		a.AppChanged(snap.AppName, snap.AppClassGame)
	}
	if a.space == nil {
		opps := make([]int, len(snap.Clusters))
		for i, c := range snap.Clusters {
			opps[i] = c.NumOPPs
		}
		a.space = core.NewStateSpace(opps, a.cfg.State)
	}
	t := a.cur
	if t.table == nil {
		t.table = core.NewQTable(a.space.Actions())
	}

	if !a.prevValid && !t.trained && t.policy.Epsilon > 0.15 {
		for _, c := range snap.Clusters {
			act.SetCap(c.Name, a.rng.Intn(c.NumOPPs))
		}
	}

	target := float64(a.window.Target())
	state := a.space.Key(snap, target)
	reward := a.cfg.Reward.Reward(snap.FPS, target, snap.PowerW, snap.TempBigC, snap.AmbientC)

	var action int
	if t.trained {
		exploit := core.Policy{Epsilon: refExploitEpsilon, EpsilonMin: refExploitEpsilon}
		action = exploit.Select(t.table, state, a.rng)
	} else {
		action = t.policy.Select(t.table, state, a.rng)
	}

	if a.prevValid {
		bestBefore, _ := t.table.Best(a.prevState)
		td := t.table.Update(a.prevState, a.prevAction, reward, state, refAlpha, a.cfg.Gamma)
		bestAfter, _ := t.table.Best(a.prevState)
		if !t.trained {
			a.trackConvergence(t, td, bestBefore != bestAfter)
		}
	}

	if !t.trained && a.lastCtlUS > 0 && snap.NowUS > a.lastCtlUS {
		t.table.TrainedUS += snap.NowUS - a.lastCtlUS
	}
	a.lastCtlUS = snap.NowUS

	core.Action(action).Apply(snap, act)
	a.prevState = state
	a.prevAction = action
	a.prevValid = true
}

func (a *refAgent) trackConvergence(t *refTable, td float64, flipped bool) {
	if td < 0 {
		td = -td
	}
	const tdAlpha = 0.05
	if !t.tdSeeded {
		t.tdEWMA, t.tdSeeded = td, true
	} else {
		t.tdEWMA += tdAlpha * (td - t.tdEWMA)
	}
	const flipAlpha = 1.0 / 400
	f := 0.0
	if flipped {
		f = 1
	}
	if !t.flipSeeded {
		t.flipEWMA, t.flipSeeded = 1, true
	}
	t.flipEWMA += flipAlpha * (f - t.flipEWMA)
	if t.table.Steps >= refConvergeMinSteps && t.flipEWMA < refConvergeFlipTol && !t.trained {
		t.trained = true
		if t.table.ConvergedAtUS == 0 {
			t.table.ConvergedAtUS = t.table.TrainedUS
		}
	}
}

func (a *refAgent) Reset() {
	a.window.Reset()
	a.prevValid = false
	a.lastCtlUS = 0
	a.cur = nil
}

// marshalAgentTables serializes every app table of either agent kind
// for byte comparison.
func marshalRefTables(t *testing.T, a *refAgent) []byte {
	t.Helper()
	out := map[string]*core.QTable{}
	for app, tab := range a.tables {
		out[app] = tab.table
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func marshalAgentTables(t *testing.T, a *core.Agent) []byte {
	t.Helper()
	out := map[string]*core.QTable{}
	for _, app := range a.Apps() {
		out[app] = a.TableFor(app).Table
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWatkinsAgentMatchesPreRefactorRule pins the tentpole's
// bit-identity contract on the Fig. 7 protocol shape: the default
// agent (watkins + egreedy through the Learner/Explorer interfaces)
// and the hard-coded pre-refactor loop train on identical sessions and
// must produce byte-identical Q-tables and evaluation results.
func TestWatkinsAgentMatchesPreRefactorRule(t *testing.T) {
	cfg := DefaultAgentConfigFor(mustNote9())
	cfg.Seed = 42
	agent := core.NewAgent(cfg)
	ref := newRefAgent(cfg)

	for i := 1; i <= 4; i++ {
		seed := int64(42 + i)
		mkTL := func() *session.Timeline {
			return &session.Timeline{Scripts: []session.Script{
				session.ForApp(workload.Spotify(), session.Seconds(60), rand.New(rand.NewSource(seed))),
			}}
		}
		runOn(mustNote9(), mkTL(), seed, agent)
		runOn(mustNote9(), mkTL(), seed, ref)
	}

	evalTL := func() *session.Timeline {
		return session.EvalTimeline(workload.Spotify(), rand.New(rand.NewSource(999)))
	}
	resAgent := runOn(mustNote9(), evalTL(), 999, agent)
	resRef := runOn(mustNote9(), evalTL(), 999, ref)
	if !reflect.DeepEqual(resAgent, resRef) {
		t.Fatalf("evaluation diverged:\nagent: %+v\nref:   %+v", resAgent, resRef)
	}
	if !bytes.Equal(marshalAgentTables(t, agent), marshalRefTables(t, ref)) {
		t.Fatal("trained Q-tables diverged from the pre-refactor rule")
	}
}

// TestWatkinsMatchesPreRefactorOnEveryScenarioPreset replays every
// scenario preset (scaled) under both implementations: multi-app
// switches, screen-off stretches, ambient drift, refresh switching —
// the full environment the scenario engine can throw at the agent —
// must leave the two with byte-identical results and tables.
func TestWatkinsMatchesPreRefactorOnEveryScenarioPreset(t *testing.T) {
	for _, name := range scenario.Names() {
		scn := scenario.Scaled(scenario.MustGet(name), 0.03)
		cfg := DefaultAgentConfigFor(mustNote9())
		cfg.Seed = 7
		agent := core.NewAgent(cfg)
		ref := newRefAgent(cfg)
		for s := int64(1); s <= 2; s++ {
			resA := runScenario(t, scn, 100+s, agent)
			resR := runScenario(t, scn, 100+s, ref)
			if !reflect.DeepEqual(resA, resR) {
				t.Fatalf("%s session %d: results diverged", name, s)
			}
		}
		if !bytes.Equal(marshalAgentTables(t, agent), marshalRefTables(t, ref)) {
			t.Fatalf("%s: tables diverged from the pre-refactor rule", name)
		}
	}
}

func mustNote9() platform.Platform { return platform.MustGet(platform.DefaultName) }

// runScenario runs the scenario compiled at seed on the Note 9 under
// controller, through the shared scenario config builder.
func runScenario(t *testing.T, scn scenario.Scenario, seed int64, controller ctrl.Controller) sim.Result {
	t.Helper()
	cfg, err := ScenarioConfig(scn, mustNote9(), seed, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Controller = controller
	eng, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng.Run()
}
