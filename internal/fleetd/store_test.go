package fleetd

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"nextdvfs/internal/cloud"
	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
)

func devTable(seed int) *core.QTable {
	t := core.NewQTable(9)
	for i := 0; i < 6; i++ {
		row := make([]float64, 9)
		for a := range row {
			row[a] = float64(seed) + float64(i*9+a)*0.25
		}
		t.Q[core.StateKey(seed*10+i)] = row
		t.Visits[core.StateKey(seed*10+i)] = seed + i + 1
	}
	t.Steps = int64(seed * 100)
	return t
}

// upload lands a single-table device upload (nil stays nil, so the
// store's empty-upload check is reachable). The store takes ownership
// of t.
func upload(s *Store, k Key, device string, t *core.QTable) (devices int, err error) {
	var set *learner.TableSet
	if t != nil {
		set = learner.SingleTableSet(t)
	}
	devices, _, err = s.UploadSetGen(k, device, set)
	return devices, err
}

// merge runs one merge round, keeping only its summary.
func merge(s *Store, k Key) (MergeInfo, error) {
	info, _, err := s.MergeSet(k)
	return info, err
}

// policy returns the key's published primary table (shared, read-only).
func policy(s *Store, k Key) (*core.QTable, int64, bool) {
	set, round, ok := s.PolicySetRef(k)
	if !ok {
		return nil, 0, false
	}
	return set.Primary(), round, true
}

func TestStoreUploadMergePolicy(t *testing.T) {
	s := NewStoreMaxDevices(0)
	k := Key{App: "spotify", Platform: "note9"}
	for i := 0; i < 4; i++ {
		n, err := upload(s, k, fmt.Sprintf("dev-%03d", i), devTable(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if n != i+1 {
			t.Fatalf("device count = %d, want %d", n, i+1)
		}
	}
	if _, _, ok := policy(s, k); ok {
		t.Fatal("policy before any merge round")
	}
	info, err := merge(s, k)
	if err != nil {
		t.Fatal(err)
	}
	if info.Round != 1 || info.Devices != 4 {
		t.Fatalf("merge info = %+v", info)
	}
	got, round, ok := policy(s, k)
	if !ok || round != 1 {
		t.Fatalf("policy missing after merge (ok=%v round=%d)", ok, round)
	}

	// The served policy must equal a direct cloud.MergeTableSets of the
	// uploads in sorted-device order — byte-for-byte.
	var sets []*learner.TableSet
	for i := 0; i < 4; i++ {
		sets = append(sets, learner.SingleTableSet(devTable(i+1)))
	}
	want, err := cloud.MergeTableSets(sets)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := core.MarshalTableSet(k.App, learner.SingleTableSet(got), true)
	wantJSON, _ := core.MarshalTableSet(k.App, learner.SingleTableSet(want.Primary()), true)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatal("store merge differs from serial cloud.MergeTableSets")
	}
}

func TestStoreReUploadReplaces(t *testing.T) {
	s := NewStoreMaxDevices(0)
	k := Key{App: "chrome", Platform: "note9"}
	if _, err := upload(s, k, "d0", devTable(1)); err != nil {
		t.Fatal(err)
	}
	if n, err := upload(s, k, "d0", devTable(2)); err != nil || n != 1 {
		t.Fatalf("re-upload: n=%d err=%v", n, err)
	}
	info, err := merge(s, k)
	if err != nil {
		t.Fatal(err)
	}
	if info.Devices != 1 {
		t.Fatalf("re-upload must replace, not add: %d devices", info.Devices)
	}
}

// TestStoreCloneSemantics pins what the store shares instead of
// copying: it owns uploaded sets and hands out the published policy by
// reference, so a published set must never change after the fact — a
// later re-upload and merge round install a fresh set instead.
func TestStoreCloneSemantics(t *testing.T) {
	s := NewStoreMaxDevices(0)
	k := Key{App: "spotify", Platform: "note9"}
	for _, d := range []string{"d0", "d1"} {
		if _, err := upload(s, k, d, devTable(1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := merge(s, k); err != nil {
		t.Fatal(err)
	}
	first, _, _ := policy(s, k)
	before, err := core.MarshalTableSet(k.App, learner.SingleTableSet(first), true)
	if err != nil {
		t.Fatal(err)
	}
	next := devTable(1)
	next.Q[core.StateKey(10)][0] = 1e9
	if _, err := upload(s, k, "d0", next); err != nil {
		t.Fatal(err)
	}
	if _, err := merge(s, k); err != nil {
		t.Fatal(err)
	}
	after, err := core.MarshalTableSet(k.App, learner.SingleTableSet(first), true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("a later round mutated a published policy set in place")
	}
	if latest, _, _ := policy(s, k); latest == first || latest.Q[core.StateKey(10)][0] == first.Q[core.StateKey(10)][0] {
		t.Fatal("the second round did not install a fresh policy")
	}
}

func TestStoreValidation(t *testing.T) {
	s := NewStoreMaxDevices(0)
	k := Key{App: "spotify", Platform: "note9"}
	if _, err := upload(s, Key{}, "d0", devTable(1)); err == nil {
		t.Fatal("empty key should fail")
	}
	if _, err := upload(s, k, "", devTable(1)); err == nil {
		t.Fatal("empty device should fail")
	}
	if _, err := upload(s, k, "d0", nil); err == nil {
		t.Fatal("nil table should fail")
	}
	if _, err := merge(s, k); err == nil {
		t.Fatal("merge with no uploads should fail")
	}
	if _, err := upload(s, k, "d0", devTable(1)); err != nil {
		t.Fatal(err)
	}
	bad := core.NewQTable(3)
	if _, err := upload(s, k, "d1", bad); err == nil {
		t.Fatal("action-space mismatch should fail at upload")
	}
}

// Identifiers become snapshot path components; anything that could
// escape the snapshot directory (or smuggle a separator) must be
// rejected before it reaches filepath.Join.
func TestStoreRejectsPathTraversalNames(t *testing.T) {
	s := NewStoreMaxDevices(0)
	evil := []string{"../../../../tmp/pwn", "a/b", `a\b`, "..", ".", "", "name with spaces", "x\x00y"}
	for _, name := range evil {
		if _, err := upload(s, Key{App: name, Platform: "note9"}, "d0", devTable(1)); err == nil {
			t.Fatalf("app %q accepted", name)
		}
		if _, err := upload(s, Key{App: "spotify", Platform: name}, "d0", devTable(1)); err == nil {
			t.Fatalf("platform %q accepted", name)
		}
		if _, err := upload(s, Key{App: "spotify", Platform: "note9"}, name, devTable(1)); err == nil {
			t.Fatalf("device %q accepted", name)
		}
		if _, err := merge(s, Key{App: "spotify", Platform: name}); err == nil {
			t.Fatalf("merge with platform %q accepted", name)
		}
	}
}

// Hostile bookkeeping counters and Q magnitudes must be clamped before
// merging: absurd visit counts must not overflow the merge weight into
// sign-flipped Q-values, and 1e308 Q-values must not reach ±Inf in the
// accumulator (json.Marshal refuses Inf, which would brick the policy
// download and snapshot path for the key).
func TestStoreClampsHostileUploads(t *testing.T) {
	s := NewStoreMaxDevices(0)
	k := Key{App: "spotify", Platform: "note9"}
	for _, dev := range []string{"d0", "d1"} {
		evil := core.NewQTable(9)
		evil.Q[core.StateKey(1)] = []float64{1, 1e308, -1e308, 0, 0, 0, 0, 0, 0}
		evil.Visits[core.StateKey(1)] = math.MaxInt
		evil.Steps = -5
		evil.TrainedUS = math.MaxInt64
		if _, err := upload(s, k, dev, evil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := merge(s, k); err != nil {
		t.Fatal(err)
	}
	got, _, _ := policy(s, k)
	if v := got.Visits[core.StateKey(1)]; v <= 0 || v > 2*maxVisitWeight {
		t.Fatalf("merged visits = %d; overflow not prevented", v)
	}
	row := got.Q[core.StateKey(1)]
	if row[0] != 1 {
		t.Fatalf("merged Q = %v, want 1 (sign-flip/garbage from weight overflow)", row[0])
	}
	for i, q := range row {
		if math.IsInf(q, 0) || math.IsNaN(q) {
			t.Fatalf("action %d merged to %v; magnitude clamp failed", i, q)
		}
	}
	// The poisoned-but-sanitized policy must still marshal (the exact
	// failure mode of unclamped Inf).
	if _, err := core.MarshalTableSetCompact(k.App, learner.SingleTableSet(got), true); err != nil {
		t.Fatalf("merged policy no longer marshals: %v", err)
	}
	if got.Steps < 0 || got.TrainedUS < 0 {
		t.Fatalf("negative counters survived: steps=%d trained=%d", got.Steps, got.TrainedUS)
	}
}

// A snapshot file whose embedded app name breaks the safe-name
// invariant must fail restore loudly, not become an unservable (and
// re-snapshot-escaping) ghost policy.
func TestStoreRestoreRejectsUnsafeNames(t *testing.T) {
	dir := t.TempDir()
	data, err := core.MarshalTableSet("../escape", learner.SingleTableSet(devTable(1)), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "note9"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "note9", "evil.qtable.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStoreMaxDevices(0).Restore(dir); err == nil {
		t.Fatal("unsafe embedded app name restored silently")
	}
}

// Unauthenticated uploads must not grow the store without bound.
func TestStoreBoundsDevicesPerKey(t *testing.T) {
	s := NewStoreMaxDevices(0)
	k := Key{App: "spotify", Platform: "note9"}
	small := func() *core.QTable {
		t := core.NewQTable(9)
		t.Q[core.StateKey(1)] = make([]float64, 9)
		t.Visits[core.StateKey(1)] = 1
		return t
	}
	for i := 0; i < maxDevicesPerKey; i++ {
		if _, err := upload(s, k, fmt.Sprintf("dev-%08d", i), small()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := upload(s, k, "dev-one-too-many", small()); err == nil {
		t.Fatal("device cap not enforced")
	}
	// A device already in the fleet may still refresh its table.
	if _, err := upload(s, k, "dev-00000000", small()); err != nil {
		t.Fatalf("re-upload at cap rejected: %v", err)
	}
}

// Concurrent uploads and merges across many keys: exercised under
// -race in CI; also asserts every key ends up mergeable.
func TestStoreConcurrent(t *testing.T) {
	s := NewStoreMaxDevices(0)
	apps := []string{"spotify", "chrome", "pubgmobile", "youtube"}
	const devices = 16
	var wg sync.WaitGroup
	for _, app := range apps {
		for d := 0; d < devices; d++ {
			wg.Add(1)
			go func(app string, d int) {
				defer wg.Done()
				k := Key{App: app, Platform: "note9"}
				if _, err := upload(s, k, fmt.Sprintf("dev-%03d", d), devTable(d+1)); err != nil {
					t.Error(err)
					return
				}
				if _, err := merge(s, k); err != nil {
					t.Error(err)
				}
			}(app, d)
		}
	}
	wg.Wait()
	for _, app := range apps {
		info, err := merge(s, Key{App: app, Platform: "note9"})
		if err != nil {
			t.Fatal(err)
		}
		if info.Devices != devices {
			t.Fatalf("%s: %d devices, want %d", app, info.Devices, devices)
		}
	}
	keys, merged, uploads := s.Stats()
	if keys != len(apps) || merged != len(apps) || uploads != len(apps)*devices {
		t.Fatalf("stats = %d/%d/%d", keys, merged, uploads)
	}
}

func TestStoreSnapshotRestore(t *testing.T) {
	dir := t.TempDir()
	s := NewStoreMaxDevices(0)
	for _, k := range []Key{
		{App: "spotify", Platform: "note9"},
		{App: "pubgmobile", Platform: "sd855"},
	} {
		if _, err := upload(s, k, "d0", devTable(3)); err != nil {
			t.Fatal(err)
		}
		if _, err := merge(s, k); err != nil {
			t.Fatal(err)
		}
		if err := s.SnapshotKey(dir, k); err != nil {
			t.Fatalf("snapshot %s: %v", k, err)
		}
	}
	// A key with no merged policy writes nothing.
	if err := s.SnapshotKey(dir, Key{App: "youtube", Platform: "note9"}); err != nil {
		t.Fatalf("snapshot of an unmerged key: %v", err)
	}

	warm := NewStoreMaxDevices(0)
	n, err := warm.Restore(dir)
	if err != nil || n != 2 {
		t.Fatalf("restore: n=%d err=%v", n, err)
	}
	for _, k := range []Key{
		{App: "spotify", Platform: "note9"},
		{App: "pubgmobile", Platform: "sd855"},
	} {
		cold, _, _ := policy(s, k)
		hot, round, ok := policy(warm, k)
		if !ok || round != 1 {
			t.Fatalf("%s not restored", k)
		}
		coldJSON, _ := core.MarshalTableSet(k.App, learner.SingleTableSet(cold), true)
		hotJSON, _ := core.MarshalTableSet(k.App, learner.SingleTableSet(hot), true)
		if !bytes.Equal(coldJSON, hotJSON) {
			t.Fatalf("%s: restored table differs from snapshotted", k)
		}
	}

	// Restoring from a directory that never existed is a cold start.
	if n, err := NewStoreMaxDevices(0).Restore(dir + "/nope"); err != nil || n != 0 {
		t.Fatalf("missing dir: n=%d err=%v", n, err)
	}
}
