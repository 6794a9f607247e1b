package cloud

import (
	"math/rand"
	"testing"

	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
)

// mkDoubleQSet builds a two-estimator set with distinct, seeded values.
func mkDoubleQSet(seed int64) *learner.TableSet {
	rng := rand.New(rand.NewSource(seed))
	l := learner.Must("doubleq", 4)
	for i := 0; i < 400; i++ {
		l.Update(core.StateKey(rng.Intn(6)), rng.Intn(4), rng.Float64()-0.5,
			core.StateKey(rng.Intn(6)), rng.Intn(4), 0.3, 0.9, rng)
	}
	return l.Snapshot()
}

// TestMergeTableSetsMergesRoleByRole pins the federated contract for
// multi-table learners: each role averages independently across
// devices, exactly as mergeTables would merge that role's tables alone.
func TestMergeTableSetsMergesRoleByRole(t *testing.T) {
	s1, s2 := mkDoubleQSet(1), mkDoubleQSet(2)
	merged, err := MergeTableSets([]*learner.TableSet{s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Learner != "doubleq" || len(merged.Roles) != 2 {
		t.Fatalf("merged set = %s with %d roles", merged.Learner, len(merged.Roles))
	}
	for i, role := range []string{"a", "b"} {
		if merged.Roles[i].Role != role {
			t.Fatalf("role %d = %q, want %q", i, merged.Roles[i].Role, role)
		}
		want, err := mergeTables([]*core.QTable{s1.Roles[i].Table, s2.Roles[i].Table})
		if err != nil {
			t.Fatal(err)
		}
		got := merged.Roles[i].Table
		if len(got.Q) != len(want.Q) {
			t.Fatalf("role %q: %d states, want %d", role, len(got.Q), len(want.Q))
		}
		for s, row := range want.Q {
			for j := range row {
				if got.Q[s][j] != row[j] {
					t.Fatalf("role %q: Q[%d][%d] = %g, want %g", role, s, j, got.Q[s][j], row[j])
				}
			}
		}
	}
	// The two estimators must stay distinct through the merge.
	a, b := merged.Roles[0].Table, merged.Roles[1].Table
	same := true
	for s, row := range a.Q {
		for j := range row {
			if bRow, ok := b.Q[s]; !ok || bRow[j] != row[j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("merge collapsed the two estimators into one")
	}
}

func TestMergeTableSetsRejectsMixedLearners(t *testing.T) {
	dq := mkDoubleQSet(3)
	single := learner.SingleTableSet(core.NewQTable(4))
	if _, err := MergeTableSets([]*learner.TableSet{dq, single}); err == nil {
		t.Fatal("mixed-learner merge accepted")
	}
	if _, err := MergeTableSets(nil); err == nil {
		t.Fatal("empty merge accepted")
	}
	if _, err := MergeTableSets([]*learner.TableSet{nil}); err == nil {
		t.Fatal("nil set accepted")
	}
}

// TestFleetMergeAppPreservesDoubleQ drives the Section IV-C loop with
// doubleq devices: after the federated round every device must hold a
// two-estimator policy again (not a collapsed single table).
func TestFleetMergeAppPreservesDoubleQ(t *testing.T) {
	cfg := core.DefaultAgentConfig()
	cfg.Learner = "doubleq"
	devices := make([]*core.Agent, 2)
	for i := range devices {
		c := cfg
		c.Seed = int64(i + 1)
		devices[i] = core.NewAgent(c)
		devices[i].InstallTableSet("pubgmobile", mkDoubleQSet(int64(10+i)), false)
	}
	fleet := &Fleet{Devices: devices, Trainer: DefaultTrainerConfig()}
	merged, _, err := fleet.MergeApp("pubgmobile")
	if err != nil {
		t.Fatal(err)
	}
	if merged.States() == 0 {
		t.Fatal("empty merged primary")
	}
	for i, d := range devices {
		set := d.SnapshotFor("pubgmobile")
		if set.Learner != "doubleq" || len(set.Roles) != 2 {
			t.Fatalf("device %d received %s with %d roles after merge", i, set.Learner, len(set.Roles))
		}
		if len(set.Roles[1].Table.Q) == 0 {
			t.Fatalf("device %d: estimator B lost in the merge", i)
		}
	}
}
