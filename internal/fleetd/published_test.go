package fleetd

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"nextdvfs/internal/core"
	"nextdvfs/internal/rollout"
)

// encodes reads the store's memo-fill counters as (json, binary).
func encodes(s *Store) (int64, int64) {
	return s.encodes[encJSON].Load(), s.encodes[encBinary].Load()
}

// checkBodies pulls the key's policy three times per encoding and
// checks every read against a fresh EncodePolicy of the installed set:
// same bytes, same Content-Type, and the same backing array each time
// (the memo serves its cached bytes rather than re-encoding).
func checkBodies(t *testing.T, s *Store, k Key) {
	t.Helper()
	set, wantRound, ok := s.PolicySetRef(k)
	if !ok {
		t.Fatal("no policy installed")
	}
	for _, binary := range []bool{false, true} {
		want, wantCT, err := EncodePolicy(k.App, set, binary)
		if err != nil {
			t.Fatal(err)
		}
		var first []byte
		for i := 0; i < 3; i++ {
			got, ct, round, err := s.PolicyBody(k, binary)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) || ct != wantCT || round != wantRound {
				t.Fatalf("binary=%v read %d: %d bytes %q round %d, want %d bytes %q round %d",
					binary, i, len(got), ct, round, len(want), wantCT, wantRound)
			}
			if first == nil {
				first = got
			} else if &got[0] != &first[0] {
				t.Fatalf("binary=%v read %d re-encoded instead of serving the cached body", binary, i)
			}
		}
	}
}

// TestPolicyBodyMemo pins the published-policy memo at the store:
// cached JSON and NXTB bodies equal a fresh EncodePolicy of the
// installed set, every kind of install (incremental merge, from-scratch
// merge, Restore) makes the next read serve the new set's bytes, and
// each install costs exactly one encode per encoding however many
// reads follow.
func TestPolicyBodyMemo(t *testing.T) {
	s := NewStoreMaxDevices(0)
	k := Key{App: "spotify", Platform: "note9"}
	if _, _, _, err := s.PolicyBody(k, false); !errors.Is(err, ErrNoPolicy) {
		t.Fatalf("policy read before any merge: %v, want ErrNoPolicy", err)
	}
	installs := int64(0)
	step := func(what string, install func()) {
		t.Helper()
		var before []byte
		if _, _, ok := s.PolicySetRef(k); ok {
			before, _, _, _ = s.PolicyBody(k, true)
		}
		install()
		installs++
		checkBodies(t, s, k)
		if after, _, _, _ := s.PolicyBody(k, true); bytes.Equal(after, before) {
			t.Fatalf("%s: pull still serves the previous policy's bytes", what)
		}
		if j, b := encodes(s); j != installs || b != installs {
			t.Fatalf("%s: %d json / %d binary encodes after %d installs, want one each per install", what, j, b, installs)
		}
	}
	mergeVia := func() {
		if _, err := merge(s, k); err != nil {
			t.Fatal(err)
		}
	}

	// First round: the devices joined the arena as they uploaded.
	upload(s, k, "dev-000", devTable(1))
	upload(s, k, "dev-001", devTable(2))
	step("first merge", mergeVia)
	// A known device re-uploads: a dirty-state recompute.
	upload(s, k, "dev-000", devTable(3))
	step("re-upload merge", mergeVia)
	// A new device joins the arena in place.
	upload(s, k, "dev-002", devTable(4))
	step("join merge", mergeVia)

	// Restore installs a policy from disk over the live one.
	dir := t.TempDir()
	other := NewStoreMaxDevices(0)
	upload(other, k, "dev-100", devTable(7))
	if _, err := merge(other, k); err != nil {
		t.Fatal(err)
	}
	if err := other.SnapshotKey(dir, k); err != nil {
		t.Fatal(err)
	}
	step("restore", func() {
		if n, err := s.Restore(dir); err != nil || n != 1 {
			t.Fatalf("restore = %d, %v", n, err)
		}
	})
	restored, _, _, _ := s.PolicyBody(k, false)
	want, _, _, _ := other.PolicyBody(k, false)
	if !bytes.Equal(restored, want) {
		t.Fatal("restored policy does not serve the snapshot's bytes")
	}
}

// servePolicy runs one GET /v1/policy through h.
func servePolicy(h http.Handler, query string, binary bool) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, "/v1/policy?"+query, nil)
	if binary {
		req.Header.Set("Accept", core.TableSetMediaType)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// pullPolicy serves one policy pull and returns the body, failing on
// anything but a 200 whose Content-Length matches it.
func pullPolicy(t *testing.T, h http.Handler, query string, binary bool) []byte {
	t.Helper()
	rec := servePolicy(h, query, binary)
	if rec.Code != http.StatusOK {
		t.Fatalf("policy %s: status %d (%s)", query, rec.Code, rec.Body)
	}
	if n := rec.Header().Get("Content-Length"); n != fmt.Sprint(rec.Body.Len()) {
		t.Fatalf("policy %s: Content-Length %q for a %d-byte body", query, n, rec.Body.Len())
	}
	return rec.Body.Bytes()
}

// TestRolloutArtifactBodies pins the memo on the rollout path: while a
// candidate is staged, the canary device is served the candidate's
// bytes and a control device the stable's, each equal to a fresh
// EncodePolicy of its own artifact and each encoded once per encoding
// however many pulls follow — also for artifacts restored from disk.
func TestRolloutArtifactBodies(t *testing.T) {
	dir := t.TempDir()
	srv, client, _, done := newRolloutServer(t, Config{SnapshotDir: dir})
	defer done()
	checkinFleet(t, client, 16)
	trainAndMerge(t, client, 1, 2) // v1 → stable
	trainAndMerge(t, client, 3, 4) // v2 → candidate
	const key = "spotify@note9"

	check := func(srv *Server) {
		t.Helper()
		// dev-00000011 is the sole canary of this 16-device fleet (see
		// TestRolloutLifecycleE2E); dev-00000000 is control.
		candidate, _, _ := srv.Rollout().Resolve(key, "dev-00000011")
		stable, _, _ := srv.Rollout().Resolve(key, "dev-00000000")
		if stable == nil || candidate == nil || stable.Version != 1 || candidate.Version != 2 {
			t.Fatal("expected stable v1 and candidate v2")
		}
		j0, b0 := encodes(srv.Store())
		for _, c := range []struct {
			device string
			art    *rollout.Artifact
		}{{"dev-00000011", candidate}, {"dev-00000000", stable}} {
			for _, binary := range []bool{false, true} {
				want, _, err := EncodePolicy("spotify", c.art.Set, binary)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 3; i++ {
					got := pullPolicy(t, srv.Handler(), "app=spotify&platform=note9&device="+c.device, binary)
					if !bytes.Equal(got, want) {
						t.Fatalf("%s binary=%v: served bytes differ from its artifact v%d's encoding", c.device, binary, c.art.Version)
					}
				}
			}
		}
		if j, b := encodes(srv.Store()); j-j0 != 2 || b-b0 != 2 {
			t.Fatalf("%d json / %d binary encodes for two artifacts pulled 3x each, want 2 / 2", j-j0, b-b0)
		}
	}
	check(srv)

	warm, err := NewServer(Config{SnapshotDir: dir, Rollout: &rollout.Config{NowUS: func() int64 { return 1000 }}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		warm.door.note(fmt.Sprintf("dev-%08d", i))
	}
	check(warm)
}

// TestPolicyPullsConcurrentWithMerges races pulls in both encodings
// against uploads and merge rounds (run it under -race). Each round
// number must map to exactly one body per encoding — a set is never
// served beside another round's bytes — and once traffic stops, the
// served bytes equal a fresh encode of the installed set.
func TestPolicyPullsConcurrentWithMerges(t *testing.T) {
	srv, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, h := srv.Store(), srv.Handler()
	k := Key{App: "spotify", Platform: "note9"}
	upload(s, k, "dev-000", devTable(1))
	if _, err := merge(s, k); err != nil {
		t.Fatal(err)
	}

	const iters = 100
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dev := fmt.Sprintf("dev-%03d", w)
			for i := 0; i < iters; i++ {
				if _, err := upload(s, k, dev, devTable(w+i%5)); err != nil {
					t.Error(err)
					return
				}
				if i%4 == 0 {
					if _, err := merge(s, k); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	var mu sync.Mutex
	seen := [numEncodings]map[int64][]byte{{}, {}}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(binary bool) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				body, _, round, err := s.PolicyBody(k, binary)
				if err != nil {
					t.Error(err)
					return
				}
				if rec := servePolicy(h, "app=spotify&platform=note9", binary); rec.Code != http.StatusOK {
					t.Errorf("pull: status %d (%s)", rec.Code, rec.Body)
					return
				}
				mu.Lock()
				m := seen[encodingIndex(binary)]
				if prev, ok := m[round]; ok && !bytes.Equal(prev, body) {
					t.Errorf("round %d served two different bodies (binary=%v)", round, binary)
				}
				m[round] = body
				mu.Unlock()
			}
		}(r%2 == 1)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	if _, err := merge(s, k); err != nil {
		t.Fatal(err)
	}
	checkBodies(t, s, k)
	set, rounds, _ := s.PolicySetRef(k)
	if j, b := encodes(s); j > rounds || b > rounds {
		t.Fatalf("%d json / %d binary encodes over %d merge rounds, want at most one per round", j, b, rounds)
	}
	for _, binary := range []bool{false, true} {
		want, _, _ := EncodePolicy(k.App, set, binary)
		if got := pullPolicy(t, h, "app=spotify&platform=note9", binary); !bytes.Equal(got, want) {
			t.Fatalf("binary=%v: final pull differs from a fresh encode", binary)
		}
	}
}
