package fleetd

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
)

func newWireServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func setHash(t *testing.T, set *core.TableSet) string {
	t.Helper()
	h, err := core.HashTableSet(set)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func getPolicy(t *testing.T, base, accept string) (string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/policy?app=game&platform=note9", nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("policy: %s: %s", resp.Status, body)
	}
	return resp.Header.Get("Content-Type"), body
}

// TestServerWireNegotiation drives the same fleet traffic through a
// binary client and a JSON client against two servers and pins the
// compatibility contract: merged policies are identical either way,
// legacy JSON downloads stay byte-identical no matter how the uploads
// arrived, and the binary download decodes to the same set.
func TestServerWireNegotiation(t *testing.T) {
	_, tsBin := newWireServer(t, Config{})
	_, tsJSON := newWireServer(t, Config{})

	bin := NewClient(tsBin.URL)
	bin.UseBinary = true
	js := NewClient(tsJSON.URL)

	for _, c := range []*Client{bin, js} {
		for seed := 1; seed <= 3; seed++ {
			set := learner.SingleTableSet(devTable(seed))
			if _, err := c.UploadTableSet("dev-a", "note9", "game", set.Clone(), 0); err != nil {
				t.Fatal(err)
			}
			if _, err := c.UploadTableSet("dev-b", "note9", "game", learner.SingleTableSet(devTable(seed+7)), 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Merge("game", "note9"); err != nil {
			t.Fatal(err)
		}
	}

	// Legacy clients (no Accept header) must see byte-identical JSON
	// regardless of the upload encoding.
	ctA, jsonFromBin := getPolicy(t, tsBin.URL, "")
	ctB, jsonFromJSON := getPolicy(t, tsJSON.URL, "")
	if ctA != "application/json" || ctB != "application/json" {
		t.Fatalf("default policy content types = %q, %q", ctA, ctB)
	}
	if !bytes.Equal(jsonFromBin, jsonFromJSON) {
		t.Fatal("binary uploads changed the legacy JSON policy bytes")
	}

	// Binary download (incl. an Accept list with parameters) decodes to
	// the same set and is smaller on the wire.
	ct, binBody := getPolicy(t, tsBin.URL, "application/json, "+core.TableSetMediaType+"; v=1")
	if ct != core.TableSetMediaType {
		t.Fatalf("binary policy content type = %q", ct)
	}
	if !core.IsBinaryTableSet(binBody) {
		t.Fatal("binary policy body is not NXTB")
	}
	// (Wire-size advantage is pinned in the core codec tests over
	// full-precision values; devTable's short decimals favor JSON.)
	_, fromBin, _, err := core.UnmarshalTableSetAny(binBody)
	if err != nil {
		t.Fatal(err)
	}
	_, fromJSON, _, err := core.UnmarshalTableSetAny(jsonFromBin)
	if err != nil {
		t.Fatal(err)
	}
	if setHash(t, fromBin) != setHash(t, fromJSON) {
		t.Fatal("binary and JSON policy bodies decode to different sets")
	}

	// And the binary client's own high-level download agrees.
	set, _, err := bin.PolicySet("game", "note9")
	if err != nil {
		t.Fatal(err)
	}
	if setHash(t, set) != setHash(t, fromJSON) {
		t.Fatal("client binary PolicySet diverges")
	}
}

// TestServerBinaryUploadContentType pins strictness: a body sent with
// the binary content type must actually be binary, and a JSON body
// with the default content type still works with parameters attached.
func TestServerBinaryUploadContentType(t *testing.T) {
	_, ts := newWireServer(t, Config{})
	jsonBody, err := core.MarshalTableSetCompact("game", learner.SingleTableSet(devTable(1)), false)
	if err != nil {
		t.Fatal(err)
	}
	put := func(contentType string, body []byte) int {
		req, err := http.NewRequest(http.MethodPut,
			ts.URL+"/v1/table?device=dev-a&platform=note9", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := put(core.TableSetMediaType, jsonBody); code != http.StatusBadRequest {
		t.Fatalf("JSON body with binary content type: %d, want 400", code)
	}
	if code := put("application/json; charset=utf-8", jsonBody); code != http.StatusOK {
		t.Fatalf("JSON body with parameterized content type: %d, want 200", code)
	}
	binBody, err := core.MarshalTableSetBinary("game", learner.SingleTableSet(devTable(2)), false)
	if err != nil {
		t.Fatal(err)
	}
	if code := put(core.TableSetMediaType+"; v=1", binBody); code != http.StatusOK {
		t.Fatalf("binary body: %d, want 200", code)
	}
}

// TestServerDeltaUploadHTTP exercises the delta protocol end to end:
// generations echo through UploadReply, deltas land exactly like full
// uploads, a stale base answers 409, and DeltaUploader recovers from
// it transparently.
func TestServerDeltaUploadHTTP(t *testing.T) {
	srv, ts := newWireServer(t, Config{})
	c := NewClient(ts.URL)

	base := learner.SingleTableSet(devTable(3))
	reply, err := c.UploadTableSet("dev-a", "note9", "game", base.Clone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Gen != 1 {
		t.Fatalf("first upload gen = %d, want 1", reply.Gen)
	}

	// Hand-built delta: one changed state.
	next := base.Clone()
	next.Primary().Q[core.StateKey(31)][2] = 9.25
	next.Primary().Visits[core.StateKey(31)] = 77
	delta := core.NewQTable(9)
	delta.Q[core.StateKey(31)] = next.Primary().Q[core.StateKey(31)]
	delta.Visits[core.StateKey(31)] = 77
	delta.Steps = next.Primary().Steps

	// Stale generation → 409 surfaced as ErrDeltaBase.
	if _, err := c.UploadTableSet("dev-a", "note9", "game", learner.SingleTableSet(delta.Clone()), 99); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("stale delta err = %v, want ErrDeltaBase", err)
	}
	reply, err = c.UploadTableSet("dev-a", "note9", "game", learner.SingleTableSet(delta), reply.Gen)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Gen != 2 {
		t.Fatalf("delta gen = %d, want 2", reply.Gen)
	}
	if _, err := c.Merge("game", "note9"); err != nil {
		t.Fatal(err)
	}
	got, _, ok := srv.Store().PolicySetRef(Key{App: "game", Platform: "note9"})
	if !ok || setHash(t, got) != setHash(t, next) {
		t.Fatal("delta-built policy does not equal the full table")
	}
}

// TestDeltaUploaderFallback: a competing upload bumps the generation
// under the uploader; its next delta gets 409 and it must recover with
// a full upload in the same call, re-arming delta mode after.
func TestDeltaUploaderFallback(t *testing.T) {
	srv, ts := newWireServer(t, Config{})
	c := NewClient(ts.URL)
	up := c.NewDeltaUploader("dev-a", "note9", "game")

	s1 := learner.SingleTableSet(devTable(1))
	if _, err := up.Upload(s1); err != nil {
		t.Fatal(err)
	}
	// Incremental training step → should go out as a delta.
	s2 := s1.Clone()
	s2.Primary().Q[core.StateKey(10)][0] += 0.5
	s2.Primary().Visits[core.StateKey(10)]++
	s2.Primary().Steps++
	reply, err := up.Upload(s2)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Gen != 2 {
		t.Fatalf("gen after delta = %d, want 2", reply.Gen)
	}

	// A competing session replaces the device's table: uploader's base
	// generation is now stale.
	if _, err := c.UploadTableSet("dev-a", "note9", "game", learner.SingleTableSet(devTable(9)), 0); err != nil {
		t.Fatal(err)
	}
	s3 := s2.Clone()
	s3.Primary().Q[core.StateKey(11)][1] -= 0.25
	s3.Primary().Steps++
	reply, err = up.Upload(s3)
	if err != nil {
		t.Fatalf("uploader did not recover from stale base: %v", err)
	}
	if reply.Gen != 4 {
		t.Fatalf("gen after fallback = %d, want 4", reply.Gen)
	}
	if _, err := c.Merge("game", "note9"); err != nil {
		t.Fatal(err)
	}
	got, _, ok := srv.Store().PolicySetRef(Key{App: "game", Platform: "note9"})
	if !ok || setHash(t, got) != setHash(t, s3) {
		t.Fatal("post-fallback policy does not equal the uploader's latest table")
	}
	// Delta mode re-armed: next incremental change goes out as a delta
	// against the fallback's generation.
	s4 := s3.Clone()
	s4.Primary().Q[core.StateKey(12)][0] += 1
	s4.Primary().Steps++
	if reply, err = up.Upload(s4); err != nil || reply.Gen != 5 {
		t.Fatalf("re-armed delta: gen=%d err=%v", reply.Gen, err)
	}
}

// TestFederateBinaryEnvelope round-trips the NXTF envelope and pushes
// a mixed batch (binary + JSON bodies) through the server, pinning
// that the merged policy matches direct uploads of the same tables.
func TestFederateBinaryEnvelope(t *testing.T) {
	binBody, err := core.MarshalTableSetBinary("game", learner.SingleTableSet(devTable(1)), false)
	if err != nil {
		t.Fatal(err)
	}
	jsonBody, err := core.MarshalTableSetCompact("game", learner.SingleTableSet(devTable(2)), false)
	if err != nil {
		t.Fatal(err)
	}
	req := FederateRequest{
		Agg:     "edge-0",
		Devices: []string{"dev-a", "dev-b"},
		Uploads: []FederatedUpload{
			{Device: "dev-a", Platform: "note9", Body: binBody},
			{Device: "dev-b", Platform: "note9", Body: jsonBody},
		},
	}
	data := MarshalFederateRequest(req)
	got, err := UnmarshalFederateRequest(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Agg != req.Agg || len(got.Devices) != 2 || len(got.Uploads) != 2 ||
		!bytes.Equal(got.Uploads[0].Body, binBody) || !bytes.Equal(got.Uploads[1].Body, jsonBody) {
		t.Fatal("envelope round trip mangled the request")
	}
	// Hostile inputs: truncations and trailing bytes must error, never
	// panic or over-allocate.
	for i := range data {
		if _, err := UnmarshalFederateRequest(data[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	if _, err := UnmarshalFederateRequest(append(bytes.Clone(data), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}

	srv, ts := newWireServer(t, Config{})
	c := NewClient(ts.URL)
	reply, err := c.Federate(req)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Accepted != 2 || reply.Rejected != 0 || reply.Registered != 2 {
		t.Fatalf("federate reply = %+v", reply)
	}
	if _, err := c.Merge("game", "note9"); err != nil {
		t.Fatal(err)
	}
	fed, _, ok := srv.Store().PolicySetRef(Key{App: "game", Platform: "note9"})
	if !ok {
		t.Fatal("no federated policy")
	}

	ref, tsRef := newWireServer(t, Config{})
	cr := NewClient(tsRef.URL)
	if _, err := cr.UploadTableSet("dev-a", "note9", "game", learner.SingleTableSet(devTable(1)), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cr.UploadTableSet("dev-b", "note9", "game", learner.SingleTableSet(devTable(2)), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cr.Merge("game", "note9"); err != nil {
		t.Fatal(err)
	}
	want, _, ok := ref.Store().PolicySetRef(Key{App: "game", Platform: "note9"})
	if !ok || setHash(t, fed) != setHash(t, want) {
		t.Fatal("federated mixed-encoding policy diverges from direct uploads")
	}
}

// TestFederateRejectsJSONEnvelope pins NXTF as the only federation
// envelope: a JSON push (or one with no Content-Type) is answered 415
// and stores nothing, even when its bodies are valid tables.
func TestFederateRejectsJSONEnvelope(t *testing.T) {
	srv, ts := newWireServer(t, Config{})
	body, err := core.MarshalTableSetCompact("game", learner.SingleTableSet(devTable(1)), false)
	if err != nil {
		t.Fatal(err)
	}
	envelope, err := json.Marshal(map[string]any{
		"agg":     "edge-0",
		"devices": []string{"dev-a"},
		"uploads": []map[string]any{{"device": "dev-a", "platform": "note9", "body": json.RawMessage(body)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ct := range []string{"application/json", ""} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/federate", bytes.NewReader(envelope))
		if err != nil {
			t.Fatal(err)
		}
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("Content-Type %q: status %d, want 415", ct, resp.StatusCode)
		}
	}
	if keys, _, uploads := srv.Store().Stats(); keys != 0 || uploads != 0 {
		t.Fatalf("rejected pushes reached the store: %d keys, %d tables", keys, uploads)
	}
	if h, err := NewClient(ts.URL).Healthz(); err != nil || h.Devices != 0 {
		t.Fatalf("rejected pushes registered devices: %+v, %v", h, err)
	}
}
