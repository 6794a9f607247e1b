package aggregator

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"nextdvfs/internal/cloud"
	"nextdvfs/internal/core"
	"nextdvfs/internal/fleetd"
	"nextdvfs/internal/learner"
	"nextdvfs/internal/rollout"
)

// The /metrics pins live here because this package can build both
// servers: the root (fleetd, with and without the rollout lifecycle)
// and the edge. Each scenario drives a fixed request sequence through
// the handler and compares the exposition byte-for-byte with a golden
// file under testdata/metrics/, uptime value masked. Merge rounds run
// on the store directly so no wall-clock latency reaches the page.

// serve runs one request through h and returns the recorded response.
func serve(t *testing.T, h http.Handler, method, target, contentType string, body []byte, hdr ...string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func expectStatus(t *testing.T, rec *httptest.ResponseRecorder, want int, what string) {
	t.Helper()
	if rec.Code != want {
		t.Fatalf("%s: status %d, want %d (%s)", what, rec.Code, want, rec.Body)
	}
}

func tableBody(t *testing.T, seed int) []byte {
	t.Helper()
	data, err := core.MarshalTableSetCompact("spotify", learner.SingleTableSet(devTable(seed)), false)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

var uptimeLine = regexp.MustCompile(`(?m)^(\w+_uptime_seconds) \S+$`)

// scrape fetches /metrics and masks the uptime sample.
func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := serve(t, h, http.MethodGet, "/metrics", "", nil)
	expectStatus(t, rec, http.StatusOK, "scrape")
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	return uptimeLine.ReplaceAllString(rec.Body.String(), "$1 <uptime>")
}

func rootExposition(t *testing.T, withRollout bool) string {
	t.Helper()
	cfg := fleetd.Config{}
	if withRollout {
		cfg.Rollout = &rollout.Config{NowUS: func() int64 { return 1 }}
	}
	srv, err := fleetd.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	k := fleetd.Key{App: "spotify", Platform: "note9"}
	round := func() {
		t.Helper()
		info, set, err := srv.Store().MergeSet(k)
		if err != nil {
			t.Fatal(err)
		}
		if !withRollout {
			return
		}
		art, err := cloud.NewArtifact(set, info.Round, info.Devices)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Rollout().Submit(k.String(), art); err != nil {
			t.Fatal(err)
		}
	}
	expectStatus(t, serve(t, h, http.MethodPost, "/v1/checkin", "application/json",
		[]byte(`{"device":"dev-000","platform":"note9"}`)), http.StatusOK, "checkin")
	expectStatus(t, serve(t, h, http.MethodPut, "/v1/table?device=dev-000&platform=note9",
		"application/json", tableBody(t, 1)), http.StatusOK, "upload")
	expectStatus(t, serve(t, h, http.MethodPut, "/v1/table?device=dev-001&platform=note9",
		"application/json", []byte(`{"garbage":true}`)), http.StatusBadRequest, "bad upload")
	expectStatus(t, serve(t, h, http.MethodGet, "/v1/policy?app=spotify&platform=note9", "", nil),
		http.StatusNotFound, "policy before merge")
	round()
	expectStatus(t, serve(t, h, http.MethodPut, "/v1/table?device=dev-001&platform=note9",
		"application/json", tableBody(t, 2)), http.StatusOK, "second upload")
	round()
	expectStatus(t, serve(t, h, http.MethodGet, "/v1/policy?app=spotify&platform=note9&device=dev-000", "", nil),
		http.StatusOK, "policy")
	expectStatus(t, serve(t, h, http.MethodGet, "/healthz", "", nil), http.StatusOK, "healthz")
	return scrape(t, h)
}

func edgeExposition(t *testing.T) string {
	t.Helper()
	rootSrv, rootTS := newRoot(t, fleetd.Config{})
	agg, _ := newEdge(t, Config{ID: "agg-m", Root: rootTS.URL})
	h := agg.Handler()
	expectStatus(t, serve(t, h, http.MethodPost, "/v1/checkin", "application/json",
		[]byte(`{"device":"dev-000","platform":"note9"}`)), http.StatusOK, "checkin")
	expectStatus(t, serve(t, h, http.MethodPut, "/v1/table?device=dev-000&platform=note9",
		"application/json", tableBody(t, 1)), http.StatusOK, "upload")
	expectStatus(t, serve(t, h, http.MethodPut, "/v1/table?device=dev-000&platform=note9",
		"application/json", tableBody(t, 1), "X-Fleet-Base-Gen", "1"), http.StatusConflict, "delta upload")
	expectStatus(t, serve(t, h, http.MethodPost, "/v1/flush", "", nil), http.StatusOK, "flush")
	expectStatus(t, serve(t, h, http.MethodGet, "/v1/policy?app=spotify&platform=note9", "", nil),
		http.StatusNotFound, "policy before any merge")
	expectStatus(t, serve(t, h, http.MethodPost, "/v1/merge?app=spotify&platform=note9", "", nil),
		http.StatusOK, "edge merge")
	expectStatus(t, serve(t, h, http.MethodGet, "/v1/policy?app=spotify&platform=note9", "", nil),
		http.StatusOK, "edge fallback policy")
	if _, _, err := rootSrv.Store().MergeSet(fleetd.Key{App: "spotify", Platform: "note9"}); err != nil {
		t.Fatal(err)
	}
	expectStatus(t, serve(t, h, http.MethodGet, "/v1/policy?app=spotify&platform=note9", "", nil),
		http.StatusOK, "proxied policy")
	expectStatus(t, serve(t, h, http.MethodGet, "/v1/apps", "", nil), http.StatusOK, "apps")
	expectStatus(t, serve(t, h, http.MethodGet, "/healthz", "", nil), http.StatusOK, "healthz")
	return scrape(t, h)
}

// TestMetricsExposition pins the exact /metrics text of both servers.
func TestMetricsExposition(t *testing.T) {
	for name, got := range map[string]string{
		"fleetd":         rootExposition(t, false),
		"fleetd_rollout": rootExposition(t, true),
		"agg":            edgeExposition(t),
	} {
		want, err := os.ReadFile(filepath.Join("testdata", "metrics", name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s exposition drifted from testdata/metrics/%s.txt:\n--- got ---\n%s--- want ---\n%s",
				name, name, got, want)
		}
	}
}

// docMetric is one name listed in a docs/operations.md metrics table.
type docMetric struct {
	typ    string // the row's type column ("counter/gauge" for mixed rows)
	labels string // sorted, comma-joined label names
}

var docItem = regexp.MustCompile("`([a-z_]+)(?:\\{([a-z_,]*)\\})?`")

// docMetrics parses the metrics tables under "## Metrics reference".
// A row may list several names ("`x_count` / `_sum` / `_max`"); a name
// starting with "_" replaces the first name's last "_" segment.
func docMetrics(t *testing.T) map[string]docMetric {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "operations.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	start := strings.Index(doc, "## Metrics reference")
	if start < 0 {
		t.Fatal("docs/operations.md has no metrics reference")
	}
	section := doc[start+len("## Metrics reference"):]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	out := make(map[string]docMetric)
	for _, line := range strings.Split(section, "\n") {
		cols := strings.Split(line, "|")
		if len(cols) < 4 || !strings.Contains(cols[1], "`") {
			continue
		}
		typ := strings.TrimSpace(cols[2])
		var first string
		for _, m := range docItem.FindAllStringSubmatch(cols[1], -1) {
			name := m[1]
			if strings.HasPrefix(name, "_") {
				name = first[:strings.LastIndex(first, "_")] + name
			} else if first == "" {
				first = name
			}
			labels := strings.Split(m[2], ",")
			sort.Strings(labels)
			out[name] = docMetric{typ: typ, labels: strings.Trim(strings.Join(labels, ","), ",")}
		}
	}
	return out
}

var (
	typeLine   = regexp.MustCompile(`^# TYPE (\w+) (\w+)$`)
	sampleLine = regexp.MustCompile(`^(\w+)(?:\{(.*)\})? \S+$`)
	labelName  = regexp.MustCompile(`(\w+)="`)
)

// TestMetricsDocumented binds every metric the servers emit to a row
// of the docs/operations.md metrics tables, and every row to a metric
// the servers emit: family types must match the type column, and each
// sample's label names must match the row's.
func TestMetricsDocumented(t *testing.T) {
	docs := docMetrics(t)
	emitted := make(map[string]bool)
	for _, text := range []string{rootExposition(t, false), rootExposition(t, true), edgeExposition(t)} {
		for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
			if m := typeLine.FindStringSubmatch(line); m != nil {
				emitted[m[1]] = true
				if d, ok := docs[m[1]]; !ok {
					t.Errorf("metric family %s is not in the docs/operations.md metrics tables", m[1])
				} else if d.typ != m[2] {
					t.Errorf("%s: docs say type %q, exposition says %q", m[1], d.typ, m[2])
				}
				continue
			}
			if strings.HasPrefix(line, "# HELP ") {
				continue
			}
			m := sampleLine.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("unparsable exposition line %q", line)
				continue
			}
			emitted[m[1]] = true
			var labels []string
			for _, l := range labelName.FindAllStringSubmatch(m[2], -1) {
				labels = append(labels, l[1])
			}
			sort.Strings(labels)
			if d, ok := docs[m[1]]; !ok {
				t.Errorf("sample %s is not in the docs/operations.md metrics tables", m[1])
			} else if got := strings.Join(labels, ","); d.labels != got {
				t.Errorf("%s: docs list labels {%s}, exposition has {%s}", m[1], d.labels, got)
			}
		}
	}
	for name := range docs {
		if !emitted[name] {
			t.Errorf("docs/operations.md lists %s, which no server emits", name)
		}
	}
}
