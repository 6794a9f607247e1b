package aggregator

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nextdvfs/internal/core"
	"nextdvfs/internal/fleetd"
	"nextdvfs/internal/learner"
)

// The fixed intake limits docs/operations.md states.
const (
	docMaxUploadBytes   = 16 << 20
	docMaxFederateBytes = 64 << 20
)

// zeros is an endless body of zero bytes, generated as it is read, so
// an oversized request costs the test no buffer of its own.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// oversized is a body one byte past limit.
func oversized(limit int64) io.Reader { return io.LimitReader(zeros{}, limit+1) }

func newStandaloneEdge(t *testing.T) *Server {
	t.Helper()
	edge, err := New(Config{FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	return edge
}

// TestOversizedBodiesGet413 sends each tier a body one byte past its
// limit. The uploads come with no declared length, so the bounded
// reader must count them out; the federation push declares its length,
// which the root refuses before reading 64 MiB.
func TestOversizedBodiesGet413(t *testing.T) {
	root, err := fleetd.NewServer(fleetd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	edge := newStandaloneEdge(t)
	for _, tc := range []struct {
		name, tier, method, target, contentType string
		h                                       http.Handler
		limit                                   int64
		declared                                bool
	}{
		{"root upload", "fleetd", http.MethodPut, "/v1/table?device=dev-000&platform=note9", "", root.Handler(), docMaxUploadBytes, false},
		{"edge upload", "aggregator", http.MethodPut, "/v1/table?device=dev-000&platform=note9", "", edge.Handler(), docMaxUploadBytes, false},
		{"root federation push", "fleetd", http.MethodPost, "/v1/federate", fleetd.FederateMediaType, root.Handler(), docMaxFederateBytes, true},
	} {
		req := httptest.NewRequest(tc.method, tc.target, oversized(tc.limit))
		if tc.declared {
			req.ContentLength = tc.limit + 1
		}
		if tc.contentType != "" {
			req.Header.Set("Content-Type", tc.contentType)
		}
		rec := httptest.NewRecorder()
		tc.h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d %s, want 413", tc.name, rec.Code, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), tc.tier+": ") {
			t.Fatalf("%s: error %s does not name the %s tier", tc.name, rec.Body, tc.tier)
		}
	}
}

// TestRootAndEdgeFrontDoorsAnswerAlike holds the same uploads and the
// same merge on a root and a standalone edge, then sends both the same
// check-in and /v1/apps requests: status codes and bodies must match,
// except that each error names its own tier.
func TestRootAndEdgeFrontDoorsAnswerAlike(t *testing.T) {
	root, err := fleetd.NewServer(fleetd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	edge := newStandaloneEdge(t)
	tiers := []struct {
		name string
		h    http.Handler
	}{{"fleetd", root.Handler()}, {"aggregator", edge.Handler()}}

	uploads := []struct {
		device, app string
		seed        int
	}{{"dev-000", "spotify", 1}, {"dev-001", "spotify", 2}, {"dev-000", "chrome", 3}}
	for _, tier := range tiers {
		for _, up := range uploads {
			data, err := core.MarshalTableSetCompact(up.app, learner.SingleTableSet(devTable(up.seed)), false)
			if err != nil {
				t.Fatal(err)
			}
			expectStatus(t, serve(t, tier.h, http.MethodPut, "/v1/table?device="+up.device+"&platform=note9", "", data),
				http.StatusOK, tier.name+" upload")
		}
		// spotify is merged; chrome is known but has no merged policy.
		expectStatus(t, serve(t, tier.h, http.MethodPost, "/v1/merge?app=spotify&platform=note9", "", nil),
			http.StatusOK, tier.name+" merge")
	}

	requests := []struct{ method, target, body string }{
		{http.MethodPost, "/v1/checkin", `{"device":"dev-002","platform":"note9"}`},
		{http.MethodPost, "/v1/checkin", `{"device":"dev-002","platform":"sd855"}`},
		{http.MethodPost, "/v1/checkin", `{"device":"../dev","platform":"note9"}`},
		{http.MethodPost, "/v1/checkin", `{"device":`},
		{http.MethodGet, "/v1/apps", ""},
		{http.MethodGet, "/v1/apps?platform=note9", ""},
		{http.MethodGet, "/v1/apps?platform=sd855", ""},
	}
	for _, req := range requests {
		var codes [2]int
		var bodies [2]string
		for i, tier := range tiers {
			rec := serve(t, tier.h, req.method, req.target, "", []byte(req.body))
			codes[i], bodies[i] = rec.Code, rec.Body.String()
			if rec.Code >= 400 {
				if !strings.Contains(bodies[i], `"`+tier.name+": ") {
					t.Fatalf("%s %s %s: error %s does not name the %s tier", tier.name, req.method, req.target, bodies[i], tier.name)
				}
				bodies[i] = strings.Replace(bodies[i], `"`+tier.name+": ", `"<tier>: `, 1)
			}
		}
		if codes[0] != codes[1] || bodies[0] != bodies[1] {
			t.Fatalf("%s %s %s: root answered %d %s, edge %d %s",
				req.method, req.target, req.body, codes[0], bodies[0], codes[1], bodies[1])
		}
	}

	// Check-ins list merged policies only; /v1/apps lists every known one.
	var checkin fleetd.CheckinReply
	rec := serve(t, edge.Handler(), http.MethodPost, "/v1/checkin", "", []byte(`{"device":"dev-002","platform":"note9"}`))
	if err := jsonDecode(rec.Body.Bytes(), &checkin); err != nil {
		t.Fatal(err)
	}
	if len(checkin.Policies) != 1 || checkin.Policies[0].App != "spotify" || checkin.Policies[0].Round != 1 {
		t.Fatalf("check-in policies = %+v, want spotify at round 1 only", checkin.Policies)
	}
	var apps []fleetd.KeyInfo
	rec = serve(t, edge.Handler(), http.MethodGet, "/v1/apps?platform=note9", "", nil)
	if err := jsonDecode(rec.Body.Bytes(), &apps); err != nil {
		t.Fatal(err)
	}
	if len(apps) != 2 {
		t.Fatalf("apps = %+v, want chrome and spotify", apps)
	}
}

// TestPolicyQueryCheckedOnEveryTier sends malformed policy queries to a
// root, to an edge whose root is up and to a standalone edge, each
// holding a merged spotify@note9 policy: a bad app, platform or device
// gets a 400 naming the tier that answered, never the policy.
func TestPolicyQueryCheckedOnEveryTier(t *testing.T) {
	rootSrv, rootTS := newRoot(t, fleetd.Config{})
	proxied, _ := newEdge(t, Config{Root: rootTS.URL})
	standalone := newStandaloneEdge(t)
	tiers := []struct {
		name, tier string
		h          http.Handler
	}{
		{"root", "fleetd", rootSrv.Handler()},
		{"edge with root", "aggregator", proxied.Handler()},
		{"standalone edge", "aggregator", standalone.Handler()},
	}
	body := tableBody(t, 1)
	for _, tier := range tiers {
		expectStatus(t, serve(t, tier.h, http.MethodPut, "/v1/table?device=dev-000&platform=note9", "", body),
			http.StatusOK, tier.name+" upload")
		expectStatus(t, serve(t, tier.h, http.MethodPost, "/v1/merge?app=spotify&platform=note9", "", nil),
			http.StatusOK, tier.name+" merge")
	}
	for _, tier := range tiers {
		expectStatus(t, serve(t, tier.h, http.MethodGet, "/v1/policy?app=spotify&platform=note9&device=dev-000", "", nil),
			http.StatusOK, tier.name+" good query")
		for _, query := range []string{
			"app=..&platform=note9&device=dev-000",
			"platform=note9&device=dev-000",
			"app=spotify&platform=a%2Fb&device=dev-000",
			"app=spotify&platform=note9&device=..%2Fx",
			"app=spotify&platform=note9&device=..",
		} {
			rec := serve(t, tier.h, http.MethodGet, "/v1/policy?"+query, "", nil)
			expectStatus(t, rec, http.StatusBadRequest, tier.name+" "+query)
			if !strings.Contains(rec.Body.String(), `"`+tier.tier+": ") {
				t.Fatalf("%s %s: error %s does not name the %s tier", tier.name, query, rec.Body, tier.tier)
			}
		}
	}
}
