package core

import (
	"os"
	"path/filepath"
	"testing"

	"nextdvfs/internal/ctrl"
	"nextdvfs/internal/learner"
)

// stepAgent drives one Observe+Control cycle with a synthetic snapshot.
func stepAgent(a *Agent, act ctrl.Actuator, nowUS int64, fps, power, tb, td float64, caps [3]int) {
	snap, _ := snapWith(caps, fps, 0, power, tb, td)
	snap.NowUS = nowUS
	snap.AppName = "testapp"
	a.Observe(snap)
	a.Control(snap, act)
}

func TestAgentImplementsController(t *testing.T) {
	var c ctrl.Controller = NewAgent(DefaultAgentConfig())
	if c.Name() != "next" {
		t.Fatalf("name = %q", c.Name())
	}
	if c.ObserveIntervalUS() != 25_000 {
		t.Fatalf("observe interval = %d, want 25 ms", c.ObserveIntervalUS())
	}
	if c.ControlIntervalUS() != 100_000 {
		t.Fatalf("control interval = %d, want 100 ms", c.ControlIntervalUS())
	}
}

func TestAgentCreatesTablePerApp(t *testing.T) {
	a := NewAgent(DefaultAgentConfig())
	a.AppChanged("facebook", false)
	act := &recordActuator{caps: map[string]int{}}
	stepAgent(a, act, 100_000, 30, 4, 45, 38, [3]int{9, 5, 3})
	a.AppChanged("spotify", false)
	stepAgent(a, act, 200_000, 0, 3, 40, 35, [3]int{9, 5, 3})
	apps := a.Apps()
	if len(apps) != 3 { // facebook, spotify, testapp (from snapshot name fallback is not used here)
		// AppChanged was called explicitly twice; Control used the
		// current table, so exactly 2 tables exist.
		if len(apps) != 2 {
			t.Fatalf("apps = %v", apps)
		}
	}
	if a.TableFor("facebook") == nil || a.TableFor("spotify") == nil {
		t.Fatal("missing per-app tables")
	}
}

func TestAgentLearnsFromTransitions(t *testing.T) {
	cfg := DefaultAgentConfig()
	cfg.Seed = 42
	a := NewAgent(cfg)
	a.AppChanged("game", true)
	act := &recordActuator{caps: map[string]int{}}
	for i := 1; i <= 50; i++ {
		stepAgent(a, act, int64(i)*100_000, 60, 5, 50, 42, [3]int{9, 5, 3})
	}
	tab := a.TableFor("game")
	if tab == nil || tab.Table == nil {
		t.Fatal("no table")
	}
	if tab.Table.Steps < 40 {
		t.Fatalf("updates = %d, want ~49 (one per control after the first)", tab.Table.Steps)
	}
	if tab.Table.States() == 0 {
		t.Fatal("no states visited")
	}
	if tab.Table.TrainedUS == 0 {
		t.Fatal("training time not accounted")
	}
}

func TestAgentActsOnCaps(t *testing.T) {
	cfg := DefaultAgentConfig()
	cfg.Seed = 7
	a := NewAgent(cfg)
	a.AppChanged("game", true)
	act := &recordActuator{caps: map[string]int{}}
	stepAgent(a, act, 100_000, 60, 5, 50, 42, [3]int{9, 5, 3})
	// The first step's caps come from exploring starts; only the
	// policy's own actions count from here on.
	act.caps = map[string]int{}
	for i := 2; i <= 30; i++ {
		stepAgent(a, act, int64(i)*100_000, 60, 5, 50, 42, [3]int{9, 5, 3})
	}
	if len(act.caps) == 0 {
		t.Fatal("agent never moved a cap in 29 exploratory steps")
	}
}

func TestAgentConvergenceLatch(t *testing.T) {
	cfg := DefaultAgentConfig()
	cfg.Seed = 3
	a := NewAgent(cfg)
	a.AppChanged("quick", false)
	act := &recordActuator{caps: map[string]int{}}
	tab := func() *AppTable { return a.TableFor("quick") }
	i := 0
	for ; i < 2*convergeMinSteps && !tab().Trained; i++ {
		stepAgent(a, act, int64(i+1)*100_000, 30, 4, 45, 38, [3]int{9, 5, 3})
	}
	if !tab().Trained {
		t.Fatalf("convergence latch never fired in %d steps", i)
	}
	if tab().Table.Steps < convergeMinSteps {
		t.Fatalf("latched after %d updates, before the %d-step minimum", tab().Table.Steps, convergeMinSteps)
	}
	if tab().Table.ConvergedAtUS == 0 {
		t.Fatal("convergence time not recorded")
	}
	// Once trained, the training-time accounting stops (online learning
	// itself continues at exploit ε).
	trainedUS := tab().Table.TrainedUS
	before := tab().Table.Steps
	for end := i + 10; i < end; i++ {
		stepAgent(a, act, int64(i+1)*100_000, 30, 4, 45, 38, [3]int{9, 5, 3})
	}
	if tab().Table.TrainedUS != trainedUS {
		t.Fatal("training time kept accumulating after convergence")
	}
	if tab().Table.Steps == before {
		t.Fatal("online learning should continue after convergence")
	}
}

// The agent has no thermal trip of its own (the paper's relies on the
// PPDW reward alone; thermalcap is the thermal safety path): even a
// 99 °C big-cluster sensor moves no cap more than one OPP.
func TestAgentHasNoThermalTrip(t *testing.T) {
	a := NewAgent(DefaultAgentConfig())
	// A table installed as trained rules out exploring starts, which
	// would set random caps on the first step.
	a.InstallTableSet("x", learner.SingleTableSet(NewQTable(9)), true)
	a.AppChanged("x", false)
	act := &recordActuator{caps: map[string]int{}}
	snap, _ := snapWith([3]int{9, 5, 3}, 60, 0, 8, 99, 70)
	snap.AppName = "x"
	a.Control(snap, act)
	if v, ok := act.caps["big"]; ok && v < 8 {
		t.Fatalf("a 99 °C sensor forced the big cap to %d (want >= cur-1)", v)
	}
	if v, ok := act.caps["GPU"]; ok && v < 2 {
		t.Fatalf("a 99 °C sensor forced the GPU cap to %d (want >= cur-1)", v)
	}
}

// The frame window trusts its mode once a quarter of it has filled.
func TestAgentWarmupIsQuarterWindow(t *testing.T) {
	for n, want := range map[int]int{40: 10, 160: 40, 320: 80} {
		cfg := DefaultAgentConfig()
		cfg.WindowSamples = n
		if got := NewAgent(cfg).window.warmup; got != want {
			t.Errorf("window %d: warmup %d, want %d", n, got, want)
		}
	}
}

func TestAgentResetKeepsTables(t *testing.T) {
	cfg := DefaultAgentConfig()
	a := NewAgent(cfg)
	a.AppChanged("app", false)
	act := &recordActuator{caps: map[string]int{}}
	stepAgent(a, act, 100_000, 30, 4, 45, 38, [3]int{9, 5, 3})
	stepAgent(a, act, 200_000, 30, 4, 45, 38, [3]int{9, 5, 3})
	steps := a.TableFor("app").Table.Steps
	a.Reset()
	if a.TableFor("app") == nil || a.TableFor("app").Table.Steps != steps {
		t.Fatal("Reset must keep learned tables (training happens once per app)")
	}
}

func TestAgentControlWithoutAppChangedUsesSnapshotApp(t *testing.T) {
	a := NewAgent(DefaultAgentConfig())
	act := &recordActuator{caps: map[string]int{}}
	snap, _ := snapWith([3]int{9, 5, 3}, 30, 0, 4, 45, 38)
	snap.AppName = "implicit"
	a.Control(snap, act)
	if a.TableFor("implicit") == nil {
		t.Fatal("agent should adopt the snapshot's app")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store := Store{Dir: dir}

	q := NewQTable(9)
	q.Update(StateKey(11), 3, 0.5, StateKey(12), 0.2, 0.9)
	q.Update(StateKey(12), 1, -0.1, StateKey(11), 0.2, 0.9)
	q.TrainedUS = 207_000_000 // the paper's 3 min 27 s
	q.ConvergedAtUS = 207_000_000

	if err := store.Save("lineage2revolution", q, true); err != nil {
		t.Fatal(err)
	}
	got, trained, err := store.Load("lineage2revolution")
	if err != nil {
		t.Fatal(err)
	}
	if !trained {
		t.Fatal("trained flag lost")
	}
	if got.Steps != q.Steps || got.TrainedUS != q.TrainedUS || got.ConvergedAtUS != q.ConvergedAtUS {
		t.Fatal("metadata lost")
	}
	if len(got.Q) != len(q.Q) {
		t.Fatalf("states = %d, want %d", len(got.Q), len(q.Q))
	}
	for k, row := range q.Q {
		gotRow, ok := got.Q[k]
		if !ok {
			t.Fatalf("state %d missing", k)
		}
		for i := range row {
			if row[i] != gotRow[i] {
				t.Fatalf("Q[%d][%d] = %g, want %g", k, i, gotRow[i], row[i])
			}
		}
	}
	if got.Visits[StateKey(11)] != 1 {
		t.Fatal("visits lost")
	}
}

func TestStoreAgentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store := Store{Dir: dir}

	cfg := DefaultAgentConfig()
	cfg.Seed = 5
	a := NewAgent(cfg)
	a.AppChanged("youtube", false)
	act := &recordActuator{caps: map[string]int{}}
	for i := 1; i <= 10; i++ {
		stepAgent(a, act, int64(i)*100_000, 30, 3, 40, 35, [3]int{9, 5, 3})
	}
	a.InstallTableSet("youtube", a.SnapshotFor("youtube"), true)
	if err := store.SaveAgent(a); err != nil {
		t.Fatal(err)
	}

	b := NewAgent(cfg)
	if err := store.LoadAgent(b); err != nil {
		t.Fatal(err)
	}
	tab := b.TableFor("youtube")
	if tab == nil || !tab.Trained {
		t.Fatal("loaded agent missing trained table")
	}
	if tab.Table.States() == 0 {
		t.Fatal("loaded table empty")
	}
}

func TestStoreLoadMissing(t *testing.T) {
	store := Store{Dir: t.TempDir()}
	_, _, err := store.Load("never-seen")
	if !os.IsNotExist(err) {
		t.Fatalf("want IsNotExist, got %v", err)
	}
}

func TestUnmarshalRejectsCorruptTables(t *testing.T) {
	if _, _, _, err := UnmarshalTableSet([]byte("{")); err == nil {
		t.Fatal("bad JSON accepted")
	}
	if _, _, _, err := UnmarshalTableSet([]byte(`{"actions":0}`)); err == nil {
		t.Fatal("zero actions accepted")
	}
	if _, _, _, err := UnmarshalTableSet([]byte(`{"actions":9,"q":{"x":[1]}}`)); err == nil {
		t.Fatal("bad state key accepted")
	}
	if _, _, _, err := UnmarshalTableSet([]byte(`{"actions":9,"q":{"1":[1]}}`)); err == nil {
		t.Fatal("wrong row width accepted")
	}
}

func TestStoreFilesAreJSON(t *testing.T) {
	dir := t.TempDir()
	store := Store{Dir: dir}
	q := NewQTable(9)
	if err := store.Save("app", q, false); err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "*.qtable.json"))
	if len(matches) != 1 {
		t.Fatalf("files = %v", matches)
	}
}
