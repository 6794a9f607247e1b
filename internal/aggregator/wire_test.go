package aggregator

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"nextdvfs/internal/core"
	"nextdvfs/internal/fleetd"
	"nextdvfs/internal/learner"
)

func newEdgeWire(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.FlushEvery == 0 {
		cfg.FlushEvery = -1
	}
	agg, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(agg.Handler())
	t.Cleanup(ts.Close)
	return agg, ts
}

func hashSet(t *testing.T, set *core.TableSet) string {
	t.Helper()
	h, err := core.HashTableSet(set)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestEdgeBinaryUploadFederatesToRoot: a binary-mode device uploads
// through the edge; the queued raw binary body rides the NXTF envelope
// upward and the root's merged policy matches a JSON-wire reference
// fleet exactly.
func TestEdgeBinaryUploadFederatesToRoot(t *testing.T) {
	root, rootTS := newRoot(t, fleetd.Config{})
	agg, aggTS := newEdgeWire(t, Config{ID: "agg-bin", Root: rootTS.URL})

	dev := fleetd.NewClient(aggTS.URL)
	dev.UseBinary = true
	if _, err := dev.UploadTableSet("dev-a", "note9", "game", learner.SingleTableSet(devTable(1)), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.UploadTableSet("dev-b", "note9", "game", learner.SingleTableSet(devTable(2)), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Flush(); err != nil {
		t.Fatal(err)
	}
	rc := fleetd.NewClient(rootTS.URL)
	if _, err := rc.Merge("game", "note9"); err != nil {
		t.Fatal(err)
	}
	got, _, ok := root.Store().PolicySetRef(fleetd.Key{App: "game", Platform: "note9"})
	if !ok {
		t.Fatal("no root policy after binary federation")
	}

	refRoot, refTS := newRoot(t, fleetd.Config{})
	refC := fleetd.NewClient(refTS.URL)
	if _, err := refC.UploadTableSet("dev-a", "note9", "game", learner.SingleTableSet(devTable(1)), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := refC.UploadTableSet("dev-b", "note9", "game", learner.SingleTableSet(devTable(2)), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := refC.Merge("game", "note9"); err != nil {
		t.Fatal(err)
	}
	want, _, ok := refRoot.Store().PolicySetRef(fleetd.Key{App: "game", Platform: "note9"})
	if !ok || hashSet(t, got) != hashSet(t, want) {
		t.Fatal("binary-wire two-tier policy diverges from JSON-wire flat fleet")
	}
}

// TestEdgeRejectsDeltaUploads: the edge tier answers X-Fleet-Base-Gen
// with 409 (it has no generations to echo), and a DeltaUploader
// pointed at an edge silently stays in full-upload mode because edge
// replies carry no gen.
func TestEdgeRejectsDeltaUploads(t *testing.T) {
	agg, ts := newEdgeWire(t, Config{ID: "agg-d"})
	body, err := core.MarshalTableSetCompact("game", learner.SingleTableSet(devTable(1)), false)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut,
		ts.URL+"/v1/table?device=dev-a&platform=note9", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Fleet-Base-Gen", "3")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("delta upload at edge: %d, want 409", resp.StatusCode)
	}

	c := fleetd.NewClient(ts.URL)
	up := c.NewDeltaUploader("dev-a", "note9", "game")
	s1 := learner.SingleTableSet(devTable(1))
	if _, err := up.Upload(s1); err != nil {
		t.Fatal(err)
	}
	s2 := s1.Clone()
	s2.Primary().Q[core.StateKey(10)][0]++
	if _, err := up.Upload(s2); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.MergeLocal(fleetd.Key{App: "game", Platform: "note9"}); err != nil {
		t.Fatal(err)
	}
	got, _, ok := agg.Store().PolicySetRef(fleetd.Key{App: "game", Platform: "note9"})
	if !ok || hashSet(t, got) != hashSet(t, s2) {
		t.Fatal("full-upload mode against the edge lost the latest table")
	}
}

// TestEdgePolicyAcceptNegotiation covers both serving paths: the proxy
// forwards Accept so the root answers binary, and the edge fallback
// (root down / standalone) honors Accept itself.
func TestEdgePolicyAcceptNegotiation(t *testing.T) {
	getPolicy := func(ts *httptest.Server) (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodGet,
			ts.URL+"/v1/policy?app=game&platform=note9", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", core.TableSetMediaType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	// Proxied: policy lives at the root.
	_, rootTS := newRoot(t, fleetd.Config{})
	rc := fleetd.NewClient(rootTS.URL)
	if _, err := rc.UploadTableSet("dev-a", "note9", "game", learner.SingleTableSet(devTable(3)), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Merge("game", "note9"); err != nil {
		t.Fatal(err)
	}
	_, aggTS := newEdgeWire(t, Config{ID: "agg-p", Root: rootTS.URL})
	resp, body := getPolicy(aggTS)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Fleet-Source") != "root" {
		t.Fatalf("proxied policy: %d source=%q", resp.StatusCode, resp.Header.Get("X-Fleet-Source"))
	}
	if resp.Header.Get("Content-Type") != core.TableSetMediaType || !core.IsBinaryTableSet(body) {
		t.Fatalf("proxied policy not binary (ct=%q)", resp.Header.Get("Content-Type"))
	}

	// Fallback: standalone edge with only a local merge.
	agg, soloTS := newEdgeWire(t, Config{ID: "agg-s"})
	sc := fleetd.NewClient(soloTS.URL)
	if _, err := sc.UploadTableSet("dev-a", "note9", "game", learner.SingleTableSet(devTable(3)), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.MergeLocal(fleetd.Key{App: "game", Platform: "note9"}); err != nil {
		t.Fatal(err)
	}
	resp, body = getPolicy(soloTS)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Fleet-Source") != "edge" {
		t.Fatalf("fallback policy: %d source=%q", resp.StatusCode, resp.Header.Get("X-Fleet-Source"))
	}
	if resp.Header.Get("Content-Type") != core.TableSetMediaType || !core.IsBinaryTableSet(body) {
		t.Fatalf("fallback policy not binary (ct=%q)", resp.Header.Get("Content-Type"))
	}
}
