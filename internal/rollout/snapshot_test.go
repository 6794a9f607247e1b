package rollout

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
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
