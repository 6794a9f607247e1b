package cloud

import (
	"testing"

	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
)

func TestWallTimeMatchesPaperScale(t *testing.T) {
	c := DefaultTrainerConfig()
	// Paper Fig. 6: 67 s online → ~7-11 s in cloud (incl. ≤4 s comms);
	// 312 s online → ~37 s compute + comms.
	got := c.WallTimeUS(67_000_000)
	if got < 8_000_000 || got > 15_000_000 {
		t.Fatalf("67 s online → %.1f s cloud, want ≈7-15", float64(got)/1e6)
	}
	long := c.WallTimeUS(312_000_000)
	if long >= 312_000_000 {
		t.Fatal("cloud must be faster than online")
	}
	if ratio := float64(312_000_000) / float64(long); ratio < 4 || ratio > 12 {
		t.Fatalf("speedup ratio %.1f implausible vs paper's ~4-10×", ratio)
	}
}

func TestWallTimeZeroSpeedupDegradesGracefully(t *testing.T) {
	c := TrainerConfig{Speedup: 0, CommOverheadUS: 1000}
	if got := c.WallTimeUS(500); got != 1500 {
		t.Fatalf("got %d", got)
	}
}

func mkTable(vals map[core.StateKey]struct {
	row    []float64
	visits int
}) *core.QTable {
	t := core.NewQTable(3)
	for s, v := range vals {
		t.Q[s] = v.row
		t.Visits[s] = v.visits
	}
	return t
}

func TestMergeTablesVisitWeighted(t *testing.T) {
	a := core.NewQTable(3)
	a.Q[core.StateKey(1)] = []float64{1, 0, 0}
	a.Visits[core.StateKey(1)] = 3
	b := core.NewQTable(3)
	b.Q[core.StateKey(1)] = []float64{0, 1, 0}
	b.Visits[core.StateKey(1)] = 1

	m, err := mergeTables([]*core.QTable{a, b})
	if err != nil {
		t.Fatal(err)
	}
	row := m.Q[core.StateKey(1)]
	// Weighted: (1*3 + 0*1)/4 = 0.75 for action 0; (0*3+1*1)/4 = 0.25.
	if row[0] != 0.75 || row[1] != 0.25 {
		t.Fatalf("merged row = %v", row)
	}
	if m.Visits[core.StateKey(1)] != 4 {
		t.Fatalf("merged visits = %d", m.Visits[core.StateKey(1)])
	}
}

func TestMergeTablesDisjointStates(t *testing.T) {
	a := core.NewQTable(3)
	a.Q[core.StateKey(1)] = []float64{1, 2, 3}
	a.Visits[core.StateKey(1)] = 2
	b := core.NewQTable(3)
	b.Q[core.StateKey(2)] = []float64{4, 5, 6}
	b.Visits[core.StateKey(2)] = 5

	m, err := mergeTables([]*core.QTable{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Q) != 2 {
		t.Fatalf("states = %d", len(m.Q))
	}
	if m.Q[core.StateKey(1)][2] != 3 || m.Q[core.StateKey(2)][0] != 4 {
		t.Fatal("disjoint states must pass through unchanged")
	}
}

func TestMergeTablesSingleIsIdentity(t *testing.T) {
	a := core.NewQTable(3)
	a.Q[core.StateKey(5)] = []float64{0.5, -1.25, 3}
	a.Visits[core.StateKey(5)] = 7
	a.Steps = 42
	a.TrainedUS = 9_000_000

	m, err := mergeTables([]*core.QTable{a})
	if err != nil {
		t.Fatal(err)
	}
	row := m.Q[core.StateKey(5)]
	if row[0] != 0.5 || row[1] != -1.25 || row[2] != 3 {
		t.Fatalf("single-table merge altered values: %v", row)
	}
	if m.Visits[core.StateKey(5)] != 7 || m.Steps != 42 || m.TrainedUS != 9_000_000 {
		t.Fatal("single-table merge altered bookkeeping")
	}
	// The merge must return an independent table, not alias the input.
	m.Q[core.StateKey(5)][0] = 99
	if a.Q[core.StateKey(5)][0] == 99 {
		t.Fatal("merged table aliases its input")
	}
}

func TestMergeTablesZeroVisits(t *testing.T) {
	// A state that was seen but never counted (Visits 0, or missing from
	// the Visits map entirely) must weigh as one visit, never divide by
	// zero, and never poison the row with NaN/Inf.
	a := core.NewQTable(2)
	a.Q[core.StateKey(1)] = []float64{4, 8}
	a.Visits[core.StateKey(1)] = 0 // explicit zero
	b := core.NewQTable(2)
	b.Q[core.StateKey(1)] = []float64{0, 0} // no Visits entry at all
	b.Q[core.StateKey(2)] = []float64{6, 2} // zero-visit state unique to b

	m, err := mergeTables([]*core.QTable{a, b})
	if err != nil {
		t.Fatal(err)
	}
	row := m.Q[core.StateKey(1)]
	// Both devices weigh 1: (4+0)/2 = 2, (8+0)/2 = 4.
	if row[0] != 2 || row[1] != 4 {
		t.Fatalf("zero-visit weighting wrong: %v", row)
	}
	if m.Visits[core.StateKey(1)] != 2 {
		t.Fatalf("zero-visit states must count once each, got %d", m.Visits[core.StateKey(1)])
	}
	solo := m.Q[core.StateKey(2)]
	if solo[0] != 6 || solo[1] != 2 {
		t.Fatalf("zero-visit pass-through wrong: %v", solo)
	}
	for s, r := range m.Q {
		for a, v := range r {
			if v != v || v > 1e300 || v < -1e300 {
				t.Fatalf("state %d action %d is not finite: %v", s, a, v)
			}
		}
	}
}

func TestMergeTablesEmptySlice(t *testing.T) {
	if _, err := mergeTables([]*core.QTable{}); err == nil {
		t.Fatal("empty (non-nil) slice should fail like nil")
	}
}

func TestMergeTablesMismatchedActionsAnyPosition(t *testing.T) {
	// The action-space check must catch a mismatch anywhere in the
	// slice, not just against the first table.
	a, b, c := core.NewQTable(3), core.NewQTable(3), core.NewQTable(9)
	if _, err := mergeTables([]*core.QTable{a, b, c}); err == nil {
		t.Fatal("mismatch in third table should fail")
	}
}

func TestMergeTablesValidation(t *testing.T) {
	if _, err := mergeTables(nil); err == nil {
		t.Fatal("empty merge should fail")
	}
	if _, err := mergeTables([]*core.QTable{nil}); err == nil {
		t.Fatal("nil table should fail")
	}
	a, b := core.NewQTable(3), core.NewQTable(4)
	if _, err := mergeTables([]*core.QTable{a, b}); err == nil {
		t.Fatal("mismatched actions should fail")
	}
}

func TestFleetMergeApp(t *testing.T) {
	cfg := core.DefaultAgentConfig()
	d1, d2, d3 := core.NewAgent(cfg), core.NewAgent(cfg), core.NewAgent(cfg)

	t1 := core.NewQTable(9)
	t1.Q[core.StateKey(7)] = make([]float64, 9)
	t1.Q[core.StateKey(7)][2] = 1
	t1.Visits[core.StateKey(7)] = 10
	t1.TrainedUS = 100_000_000
	d1.InstallTableSet("pubgmobile", learner.SingleTableSet(t1), false)

	t2 := core.NewQTable(9)
	t2.Q[core.StateKey(8)] = make([]float64, 9)
	t2.Visits[core.StateKey(8)] = 4
	t2.TrainedUS = 150_000_000
	d2.InstallTableSet("pubgmobile", learner.SingleTableSet(t2), false)

	fleet := &Fleet{Devices: []*core.Agent{d1, d2, d3}, Trainer: DefaultTrainerConfig()}
	merged, wallUS, err := fleet.MergeApp("pubgmobile")
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Q) != 2 {
		t.Fatalf("merged states = %d", len(merged.Q))
	}
	// Wall time: slowest device (150 s) through the cloud model.
	want := DefaultTrainerConfig().WallTimeUS(150_000_000)
	if wallUS != want {
		t.Fatalf("wall = %d, want %d", wallUS, want)
	}
	// Every device, including the one that never saw the app, now has a
	// trained table.
	for i, d := range fleet.Devices {
		tab := d.TableFor("pubgmobile")
		if tab == nil || !tab.Trained || tab.Table.States() != 2 {
			t.Fatalf("device %d did not receive the merged table", i)
		}
	}
	// Tables are deep copies: mutating one device must not leak.
	d1.TableFor("pubgmobile").Table.Q[core.StateKey(7)][0] = 99
	if d2.TableFor("pubgmobile").Table.Q[core.StateKey(7)][0] == 99 {
		t.Fatal("devices share table memory")
	}
}

func TestFleetMergeAppNoSources(t *testing.T) {
	fleet := &Fleet{Devices: []*core.Agent{core.NewAgent(core.DefaultAgentConfig())}}
	if _, _, err := fleet.MergeApp("unknown"); err == nil {
		t.Fatal("merge with no sources should fail")
	}
}
