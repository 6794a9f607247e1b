package rollout

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"nextdvfs/internal/core"
)

func TestSnapshotRestore(t *testing.T) {
	dir := t.TempDir()
	m := testManager()
	const key = "spotify@note9"
	if _, err := m.Submit(key, testArtifact(t, 1.0, 1)); err != nil {
		t.Fatal(err)
	}
	registerFleet(m, 16)
	if _, err := m.Submit(key, testArtifact(t, 2.0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := m.SnapshotKey(dir, key); err != nil {
		t.Fatalf("SnapshotKey: %v", err)
	}

	m2 := testManager()
	n, err := m2.Restore(dir)
	if err != nil || n != 1 {
		t.Fatalf("Restore = %d, %v; want 1 key", n, err)
	}
	before, _ := m.Status(key)
	after, ok := m2.Status(key)
	if !ok {
		t.Fatal("restored manager lost the key")
	}
	if after.Stable.Version != before.Stable.Version || after.Stable.Hash != before.Stable.Hash {
		t.Fatalf("stable drifted across restart: %+v vs %+v", after.Stable, before.Stable)
	}
	if after.Candidate == nil || after.Candidate.Version != 2 {
		t.Fatalf("candidate lost across restart: %+v", after.Candidate)
	}
	// A device's cohort is stable across the restart (devices re-register
	// via check-ins; until then the floor is empty and the raw stage
	// threshold applies, which canaries nobody — resolve must still work).
	if art, _, ok := m2.Resolve(key, ""); !ok || art.Version != 1 {
		t.Fatalf("legacy resolve after restore = v%d, want v1", art.Version)
	}
	registerFleet(m2, 16)
	if art, cohort, _ := m2.Resolve(key, "dev-00000011"); cohort != CohortCanary || art.Version != 2 {
		t.Fatalf("dev-00000011 after restore = v%d %q, want v2 canary", art.Version, cohort)
	}

	// Version numbering continues past the restart.
	v3, err := m2.Submit(key, testArtifact(t, 3.0, 3))
	if err != nil || v3.Version != 3 {
		t.Fatalf("post-restore submit = v%d, %v; want v3", v3.Version, err)
	}
}

// parentSnapshot is the state file SnapshotKey wrote for
// TestSnapshotRestore's two artifacts before content hashes moved to
// the NXTB rule: each hash is SHA-256 over the table set's compact
// JSON.
const parentSnapshot = `{"key":"spotify@note9","next_version":2,"stage_idx":0,"rollbacks":0,"stable":1,"candidate":2,"last_action":"submitted","artifacts":[` +
	`{"version":1,"hash":"sha256:856c04c0779ff62828eb4b18d11ff5ec5dd74a8d8d64925873412b23f3af3216","learner":"watkins","parent":0,"round":1,"devices":2,"states":2,"created_us":42,"table":{"app":"","actions":3,"steps":10,"trained_us":0,"converged_at_us":0,"trained":true,"q":{"1":[1,2,3],"2":[1,0,-1]},"visits":{"1":5,"2":3}}},` +
	`{"version":2,"hash":"sha256:4a7f8ecaeb8eceb78c51170d243278d3a0c89ff29f2e167750f8730c577e95b7","learner":"watkins","parent":1,"round":2,"devices":2,"states":2,"created_us":42,"table":{"app":"","actions":3,"steps":10,"trained_us":0,"converged_at_us":0,"trained":true,"q":{"1":[2,3,4],"2":[2,1,0]},"visits":{"1":5,"2":3}}}]}`

// TestRestoreParentSnapshot restores a state file written under the
// JSON hash rule: the lifecycle survives, and the artifacts come back
// stamped with HashTableSet's hash, so a re-merge of the same tables
// dedups against them.
func TestRestoreParentSnapshot(t *testing.T) {
	dir := t.TempDir()
	const key = "spotify@note9"
	if err := os.WriteFile(filepath.Join(dir, key+snapshotExt), []byte(parentSnapshot), 0o644); err != nil {
		t.Fatal(err)
	}
	m := testManager()
	if n, err := m.Restore(dir); err != nil || n != 1 {
		t.Fatalf("Restore = %d, %v; want 1 key", n, err)
	}
	st, ok := m.Status(key)
	if !ok || st.Stable == nil || st.Stable.Version != 1 || st.Candidate == nil || st.Candidate.Version != 2 {
		t.Fatalf("restored status %+v, want stable v1 and candidate v2", st)
	}
	for _, a := range []struct {
		got core.ArtifactMeta
		q   float64
	}{{*st.Stable, 1}, {*st.Candidate, 2}} {
		want, err := core.HashTableSet(testSet(a.q))
		if err != nil {
			t.Fatal(err)
		}
		if a.got.Hash != want {
			t.Errorf("v%d restored with hash %s, want %s", a.got.Version, a.got.Hash, want)
		}
	}
	if got, err := m.Submit(key, testArtifact(t, 2.0, 3)); err != nil || got.Version != 2 {
		t.Fatalf("re-submitting the candidate's tables = v%d, %v; want the restored v2", got.Version, err)
	}

	// A payload altered after a JSON-rule hash still fails.
	tampered := strings.Replace(parentSnapshot, `"1":[2,3,4]`, `"1":[2,3,5]`, 1)
	if err := os.WriteFile(filepath.Join(dir, key+snapshotExt), []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := testManager().Restore(dir); err == nil || !strings.Contains(err.Error(), "hash") {
		t.Fatalf("Restore of a tampered parent snapshot = %v, want content-hash error", err)
	}
}

func TestRestoreRejectsTamper(t *testing.T) {
	dir := t.TempDir()
	m := testManager()
	const key = "spotify@note9"
	if _, err := m.Submit(key, testArtifact(t, 1.0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.SnapshotKey(dir, key); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+snapshotExt)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one table value inside the artifact payload: the recomputed
	// content hash must catch it.
	tampered := strings.Replace(string(data), `"1":[1,2,3]`, `"1":[9,2,3]`, 1)
	if tampered == string(data) {
		t.Fatalf("tamper target not found in snapshot: %s", data)
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := testManager().Restore(dir); err == nil || !strings.Contains(err.Error(), "hash") {
		t.Fatalf("Restore of tampered snapshot = %v, want content-hash error", err)
	}
}

func TestRestoreRejectsForeignKey(t *testing.T) {
	dir := t.TempDir()
	m := testManager()
	const key = "spotify@note9"
	if _, err := m.Submit(key, testArtifact(t, 1.0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.SnapshotKey(dir, key); err != nil {
		t.Fatal(err)
	}
	// Rename the file so the embedded key no longer matches.
	if err := os.Rename(filepath.Join(dir, key+snapshotExt), filepath.Join(dir, "other@note9"+snapshotExt)); err != nil {
		t.Fatal(err)
	}
	if _, err := testManager().Restore(dir); err == nil {
		t.Fatal("Restore accepted a snapshot whose embedded key mismatches its filename")
	}
	if err := m.SnapshotKey(dir, "../escape"); err == nil {
		t.Fatal("SnapshotKey accepted a path-escaping key")
	}
}

// TestRestoreRejectsStageOutOfRange feeds Restore a snapshot whose
// stage index is not a canary stage: outside the fixed stage list (the
// first policy pull would index past it), or at the final full-fleet
// stage (every device would run the unvetted candidate, and with no
// control cohort the stage could never be judged). The restart must
// fail instead.
func TestRestoreRejectsStageOutOfRange(t *testing.T) {
	dir := t.TempDir()
	m := testManager()
	const key = "spotify@note9"
	if _, err := m.Submit(key, testArtifact(t, 1.0, 1)); err != nil {
		t.Fatal(err)
	}
	registerFleet(m, 16)
	if _, err := m.Submit(key, testArtifact(t, 2.0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := m.SnapshotKey(dir, key); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+snapshotExt)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := testManager().Restore(dir); err != nil {
		t.Fatalf("Restore of the untouched snapshot: %v", err)
	}
	for _, idx := range []string{"-1", strconv.Itoa(len(stages) - 1), strconv.Itoa(len(stages))} {
		bad := strings.Replace(string(data), `"stage_idx":0`, `"stage_idx":`+idx, 1)
		if bad == string(data) {
			t.Fatalf("stage_idx not found in snapshot: %s", data)
		}
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := testManager().Restore(dir); err == nil || !strings.Contains(err.Error(), "stage index") {
			t.Fatalf("Restore with stage_idx %s = %v, want a stage-index error", idx, err)
		}
	}
}
