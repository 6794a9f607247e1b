package fleetd

import (
	"math/rand"
	"net/http/httptest"
	"testing"

	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
)

func mkDoubleQSet(seed int64) *learner.TableSet {
	rng := rand.New(rand.NewSource(seed))
	l := learner.Must("doubleq", 9)
	for i := 0; i < 300; i++ {
		l.Update(core.StateKey(rng.Intn(12)), rng.Intn(9), rng.Float64()-0.5,
			core.StateKey(rng.Intn(12)), rng.Intn(9), 0.3, 0.9, rng)
	}
	return l.Snapshot()
}

// TestDoubleQUploadMergePolicyRoundTrip closes the full fleet loop over
// HTTP for a multi-table learner: two devices upload two-estimator
// sets, the merge federates role-by-role, and the downloaded policy
// carries both estimators — with values matching a serial
// cloud-reference merge of the same sets.
func TestDoubleQUploadMergePolicyRoundTrip(t *testing.T) {
	srv, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)

	sets := []*learner.TableSet{mkDoubleQSet(1), mkDoubleQSet(2)}
	for i, set := range sets {
		if _, err := client.UploadTableSet(deviceName(i), "note9", "pubgmobile", set, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Merge("pubgmobile", "note9"); err != nil {
		t.Fatal(err)
	}
	policy, round, err := client.PolicySet("pubgmobile", "note9")
	if err != nil {
		t.Fatal(err)
	}
	if round != 1 {
		t.Fatalf("round = %d", round)
	}
	if policy.Learner != "doubleq" || len(policy.Roles) != 2 {
		t.Fatalf("policy = %s with %d roles, want doubleq with 2", policy.Learner, len(policy.Roles))
	}
	// Byte-level agreement with the in-process store: the wire adds
	// nothing and loses nothing.
	want, _, ok := srv.Store().PolicySetRef(Key{App: "pubgmobile", Platform: "note9"})
	if !ok {
		t.Fatal("store lost the merged policy")
	}
	for i := range want.Roles {
		w, g := want.Roles[i].Table, policy.Roles[i].Table
		if len(w.Q) != len(g.Q) {
			t.Fatalf("role %q: states %d vs %d", want.Roles[i].Role, len(g.Q), len(w.Q))
		}
		for s, row := range w.Q {
			for j := range row {
				if g.Q[s][j] != row[j] {
					t.Fatalf("role %q: value drift through the wire", want.Roles[i].Role)
				}
			}
		}
	}
}

func deviceName(i int) string {
	return string(rune('a'+i)) + "-device"
}

// TestUploadRejectsMixedLearnersPerKey: one policy key, one learner —
// averaging a Double-Q estimator into single-table uploads would
// corrupt both.
func TestUploadRejectsMixedLearnersPerKey(t *testing.T) {
	s := NewStoreMaxDevices(0)
	k := Key{App: "spotify", Platform: "note9"}
	if _, _, err := s.UploadSetGen(k, "dev-a", mkDoubleQSet(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.UploadSetGen(k, "dev-b", learner.SingleTableSet(core.NewQTable(9))); err == nil {
		t.Fatal("single-table upload accepted into a doubleq fleet")
	}
}

// TestUploadRejectsUnregisteredLayouts: a hostile first upload with a
// made-up learner name or bogus role layout must die at the boundary —
// otherwise it would pin an unmatchable layout onto the key and lock
// out every legitimate device.
func TestUploadRejectsUnregisteredLayouts(t *testing.T) {
	s := NewStoreMaxDevices(0)
	k := Key{App: "spotify", Platform: "note9"}
	bogus := &learner.TableSet{
		Learner: "zzz",
		Roles:   []learner.RoleTable{{Role: "q", Table: core.NewQTable(9)}},
	}
	if _, _, err := s.UploadSetGen(k, "dev-evil", bogus); err == nil {
		t.Fatal("unknown learner name accepted")
	}
	wrongRoles := &learner.TableSet{
		Learner: "doubleq",
		Roles:   []learner.RoleTable{{Role: "x", Table: core.NewQTable(9)}, {Role: "y", Table: core.NewQTable(9)}},
	}
	if _, _, err := s.UploadSetGen(k, "dev-evil", wrongRoles); err == nil {
		t.Fatal("bogus role layout accepted")
	}
	// The key stays unpinned: a legitimate upload still lands.
	if _, _, err := s.UploadSetGen(k, "dev-a", mkDoubleQSet(1)); err != nil {
		t.Fatalf("legitimate upload rejected after hostile attempts: %v", err)
	}
	// And the HTTP boundary rejects the same garbage at unmarshal.
	if _, _, _, err := core.UnmarshalTableSet([]byte(`{"app":"spotify","actions":9,"learner":"zzz","q":{},"visits":{}}`)); err == nil {
		t.Fatal("unknown learner survived unmarshal")
	}
}

// TestDoubleQSnapshotRestore: a doubleq policy survives the snapshot
// dir round trip with both estimators.
func TestDoubleQSnapshotRestore(t *testing.T) {
	dir := t.TempDir()
	s := NewStoreMaxDevices(0)
	k := Key{App: "pubgmobile", Platform: "note9"}
	if _, _, err := s.UploadSetGen(k, "dev-a", mkDoubleQSet(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := merge(s, k); err != nil {
		t.Fatal(err)
	}
	if err := s.SnapshotKey(dir, k); err != nil {
		t.Fatal(err)
	}
	warm := NewStoreMaxDevices(0)
	if n, err := warm.Restore(dir); err != nil || n != 1 {
		t.Fatalf("restore: n=%d err=%v", n, err)
	}
	set, round, ok := warm.PolicySetRef(k)
	if !ok || round != 1 {
		t.Fatalf("restored policy missing (ok=%v round=%d)", ok, round)
	}
	if set.Learner != "doubleq" || len(set.Roles) != 2 || len(set.Roles[1].Table.Q) == 0 {
		t.Fatalf("restore lost the second estimator: %s, %d roles", set.Learner, len(set.Roles))
	}
}
