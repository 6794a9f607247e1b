package fleetd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"testing"

	"nextdvfs/internal/cloud"
	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
)

// scratchTable builds a random role table over a few shared states:
// rows with and without a visit count, visit counts without a row, and
// now and then a row value sanitize must clamp (NaN, ±Inf, ±1e300).
// finite keeps every value finite, for the JSON wire.
func scratchTable(rng *rand.Rand, actions int, finite bool) *core.QTable {
	hostile := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300}
	t := core.NewQTable(actions)
	for n := 1 + rng.Intn(12); n > 0; n-- {
		s := core.StateKey(rng.Intn(40))
		if rng.Intn(4) != 0 {
			row := make([]float64, actions)
			for a := range row {
				row[a] = float64(rng.Intn(33)-16) / 8
				if rng.Intn(10) == 0 {
					row[a] = hostile[rng.Intn(len(hostile))]
					if finite && (math.IsNaN(row[a]) || math.IsInf(row[a], 0)) {
						row[a] = math.Copysign(1e300, row[a])
					}
				}
			}
			t.Q[s] = row
		}
		if rng.Intn(3) != 0 {
			t.Visits[s] = rng.Intn(9) - 1
		}
	}
	t.Steps, t.TrainedUS = int64(rng.Intn(1000)), int64(rng.Intn(1000))
	return t
}

// scratchSet builds a random table set with the learner's role layout.
func scratchSet(rng *rand.Rand, name string, actions int, finite bool) *learner.TableSet {
	set := learner.Must(name, actions).Snapshot()
	for i := range set.Roles {
		set.Roles[i].Table = scratchTable(rng, actions, finite)
	}
	return set
}

// TestUploadHandlerReusesScratch drives interleaved full and delta
// uploads from several devices through Server.Handler, where each
// request reads and decodes in memory an earlier request gave back:
// binary and JSON bodies, deltas before and after a merge round, row
// values sanitize must clamp, and refusals (a stale base, a broken
// body, a layout change, a body past the size limit) in between. After
// every merge the served policy must be byte-identical to
// cloud.JoinDevices over shadow tables composed the reference way.
func TestUploadHandlerReusesScratch(t *testing.T) {
	for _, name := range []string{learner.DefaultLearner, "doubleq"} {
		t.Run(name, func(t *testing.T) { runScratchProgram(t, name) })
	}
}

func runScratchProgram(t *testing.T, name string) {
	const actions, devices = 3, 5
	rng := rand.New(rand.NewSource(7))
	srv, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	shadow := make(map[string]*learner.TableSet)
	gens := make(map[string]int64)
	send := func(method, target, contentType string, body []byte, baseGen string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, target, bytes.NewReader(body))
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if baseGen != "" {
			req.Header.Set(baseGenHeader, baseGen)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	encode := func(set *learner.TableSet, binary bool) ([]byte, string) {
		if binary {
			data, err := core.MarshalTableSetBinary("spotify", set, false)
			if err != nil {
				t.Fatal(err)
			}
			return data, core.TableSetMediaType
		}
		data, err := core.MarshalTableSetCompact("spotify", set, false)
		if err != nil {
			t.Fatal(err)
		}
		return data, "application/json"
	}
	expect := func(step int, rec *httptest.ResponseRecorder, want int, what string) {
		t.Helper()
		if rec.Code != want {
			t.Fatalf("step %d: %s: status %d, want %d (%s)", step, what, rec.Code, want, rec.Body)
		}
	}
	reply := func(rec *httptest.ResponseRecorder) int64 {
		t.Helper()
		var r UploadReply
		if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		return r.Gen
	}
	merged := 0
	check := func(step int) {
		t.Helper()
		rec := send(http.MethodPost, "/v1/merge?app=spotify&platform=note9", "", nil, "")
		if len(shadow) == 0 {
			expect(step, rec, http.StatusBadRequest, "merge with no tables")
			return
		}
		expect(step, rec, http.StatusOK, "merge")
		merged++
		pull := httptest.NewRequest(http.MethodGet, "/v1/policy?app=spotify&platform=note9", nil)
		pull.Header.Set("Accept", core.TableSetMediaType)
		got := httptest.NewRecorder()
		h.ServeHTTP(got, pull)
		expect(step, got, http.StatusOK, "policy pull")
		want, _, err := cloud.JoinDevices(shadow)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes, err := core.MarshalTableSetBinary("spotify", want, true)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Body.Bytes(), wantBytes) {
			t.Fatalf("step %d: served policy differs from JoinDevices over the sanitized shadows", step)
		}
	}

	for step := range 400 {
		dev := fmt.Sprintf("dev-%d", rng.Intn(devices))
		target := "/v1/table?device=" + dev + "&platform=note9"
		gen := strconv.FormatInt(gens[dev], 10)
		binary := rng.Intn(4) != 0
		switch op := rng.Intn(20); {
		case op < 4: // full upload: a new device, or a replacement
			set := scratchSet(rng, name, actions, !binary)
			body, ct := encode(set, binary)
			rec := send(http.MethodPut, target, ct, body, "")
			expect(step, rec, http.StatusOK, "full upload")
			shadow[dev], gens[dev] = sanitized(t, set), reply(rec)
		case op < 13: // delta on the generation the server handed out
			delta := scratchSet(rng, name, actions, !binary)
			body, ct := encode(delta, binary)
			rec := send(http.MethodPut, target, ct, body, gen)
			base, known := shadow[dev]
			if !known {
				expect(step, rec, http.StatusConflict, "delta without a base")
				continue
			}
			expect(step, rec, http.StatusOK, "delta")
			shadow[dev], gens[dev] = overlayDelta(base, sanitized(t, delta)), reply(rec)
		case op == 13: // stale base generation
			body, ct := encode(scratchSet(rng, name, actions, !binary), binary)
			stale := strconv.FormatInt(gens[dev]+1, 10)
			expect(step, send(http.MethodPut, target, ct, body, stale), http.StatusConflict, "stale delta")
		case op == 14: // a binary body cut short, as a delta or a full upload
			body, _ := encode(scratchSet(rng, name, actions, false), true)
			body = body[:len(body)-1-rng.Intn(len(body)/2)]
			base := ""
			if rng.Intn(2) == 0 {
				base = gen
			}
			expect(step, send(http.MethodPut, target, core.TableSetMediaType, body, base), http.StatusBadRequest, "truncated body")
		case op == 15: // a delta whose action count differs from the base
			body, ct := encode(scratchSet(rng, name, actions+1, !binary), binary)
			rec := send(http.MethodPut, target, ct, body, gen)
			if _, known := shadow[dev]; known {
				expect(step, rec, http.StatusBadRequest, "layout-changing delta")
			} else {
				expect(step, rec, http.StatusConflict, "layout-changing delta without a base")
			}
		case op == 16: // a body that declares a length past the limit
			req := httptest.NewRequest(http.MethodPut, target, bytes.NewReader(make([]byte, 64)))
			req.Header.Set("Content-Type", core.TableSetMediaType)
			req.Header.Set(baseGenHeader, gen)
			req.ContentLength = maxUploadBytes + 1
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			expect(step, rec, http.StatusRequestEntityTooLarge, "declared oversized body")
		default:
			check(step)
		}
	}
	// A body past the limit that declares no length is read up to the
	// limit: the scratch it grew is not pooled, and uploads go on.
	req := httptest.NewRequest(http.MethodPut, "/v1/table?device=dev-0&platform=note9",
		bytes.NewReader(make([]byte, maxUploadBytes+1)))
	req.Header.Set("Content-Type", core.TableSetMediaType)
	req.ContentLength = -1
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	expect(-1, rec, http.StatusRequestEntityTooLarge, "undeclared oversized body")
	set := scratchSet(rng, name, actions, false)
	body, ct := encode(set, true)
	rec = send(http.MethodPut, "/v1/table?device=dev-0&platform=note9", ct, body, "")
	expect(-1, rec, http.StatusOK, "full upload after an oversized body")
	shadow["dev-0"] = sanitized(t, set)
	check(-1)
	if merged < 10 {
		t.Fatalf("only %d merges ran; the program checks too little", merged)
	}
}

// TestUploadDeltaLeavesBodyUnwritten pins that a delta's body stays as
// it arrived: sanitize writes none of its rows, and the clamp applies
// as the store reads them.
func TestUploadDeltaLeavesBodyUnwritten(t *testing.T) {
	s := NewStoreMaxDevices(0)
	k := Key{App: "spotify", Platform: "note9"}
	base := core.NewQTable(3)
	base.Q[1] = []float64{1, 2, 3}
	base.Visits[1] = 2
	_, gen, err := s.UploadSetGen(k, "dev-a", learner.SingleTableSet(base))
	if err != nil {
		t.Fatal(err)
	}
	delta := core.NewQTable(3)
	delta.Q[1] = []float64{math.NaN(), 1e300, math.Inf(-1)}
	delta.Q[2] = []float64{0.5, -1e13, 0}
	delta.Visits[2] = 1
	body, err := core.MarshalTableSetBinary(k.App, learner.SingleTableSet(delta), false)
	if err != nil {
		t.Fatal(err)
	}
	arrived := slices.Clone(body)
	for round := range 2 { // before the first merge, then after it
		_, set, _, err := core.UnmarshalSortedSetBinary(body)
		if err != nil {
			t.Fatal(err)
		}
		if _, gen, err = s.upload(k, "dev-a", set, true, gen); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, arrived) {
			t.Fatalf("round %d: the store wrote into the delta's body", round)
		}
		if _, _, err := s.MergeSet(k); err != nil {
			t.Fatal(err)
		}
	}
	got, _, ok := policy(s, k)
	if !ok {
		t.Fatal("no policy")
	}
	want := map[core.StateKey][]float64{1: {0, maxQValue, -maxQValue}, 2: {0.5, -maxQValue, 0}}
	for st, row := range want {
		if !slices.Equal(got.Q[st], row) {
			t.Fatalf("state %d merged to %v, want %v", st, got.Q[st], row)
		}
	}
}

// TestUploadHandlerConcurrentScratch sends uploads from several devices
// at once through one Server.Handler, so requests on different
// goroutines take and give back pooled scratch concurrently; the served
// policy must still equal JoinDevices over the sanitized shadows.
func TestUploadHandlerConcurrentScratch(t *testing.T) {
	const actions, devices, deltas = 3, 4, 40
	srv, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	put := func(dev string, set *learner.TableSet, baseGen int64) (int64, error) {
		body, err := core.MarshalTableSetBinary("spotify", set, false)
		if err != nil {
			return 0, err
		}
		req := httptest.NewRequest(http.MethodPut, "/v1/table?device="+dev+"&platform=note9", bytes.NewReader(body))
		req.Header.Set("Content-Type", core.TableSetMediaType)
		if baseGen > 0 {
			req.Header.Set(baseGenHeader, strconv.FormatInt(baseGen, 10))
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("%s: status %d (%s)", dev, rec.Code, rec.Body)
		}
		var r UploadReply
		err = json.Unmarshal(rec.Body.Bytes(), &r)
		return r.Gen, err
	}
	shadows := make([]*learner.TableSet, devices)
	for d := range devices {
		set := scratchSet(rand.New(rand.NewSource(int64(d))), learner.DefaultLearner, actions, false)
		if _, err := put(fmt.Sprintf("dev-%d", d), set, 0); err != nil {
			t.Fatal(err)
		}
		shadows[d] = sanitized(t, set)
	}
	for round := range 2 { // before the first merge, then after it
		var wg sync.WaitGroup
		for d := range devices {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100*round + d)))
				dev, gen := fmt.Sprintf("dev-%d", d), int64(round*deltas+1)
				for range deltas {
					delta := scratchSet(rng, learner.DefaultLearner, actions, false)
					var err error
					if gen, err = put(dev, delta, gen); err != nil {
						t.Error(err)
						return
					}
					shadows[d] = overlayDelta(shadows[d], sanitized(t, delta))
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		_, got, err := srv.Store().MergeSet(Key{App: "spotify", Platform: "note9"})
		if err != nil {
			t.Fatal(err)
		}
		shadow := make(map[string]*learner.TableSet, devices)
		for d, set := range shadows {
			shadow[fmt.Sprintf("dev-%d", d)] = set
		}
		want, _, err := cloud.JoinDevices(shadow)
		if err != nil {
			t.Fatal(err)
		}
		gotBytes, err := core.MarshalTableSetBinary("spotify", got, true)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes, err := core.MarshalTableSetBinary("spotify", want, true)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("round %d: served policy differs from JoinDevices over the sanitized shadows", round)
		}
	}
}
