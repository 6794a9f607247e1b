package fleetd

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *Client, func()) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	return srv, NewClient(ts.URL), ts.Close
}

func TestServerEndToEnd(t *testing.T) {
	_, client, done := newTestServer(t, Config{})
	defer done()

	if _, err := client.Healthz(); err != nil {
		t.Fatal(err)
	}

	// Fresh check-in: no policies yet.
	reply, err := client.Checkin("dev-000", "note9")
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Policies) != 0 {
		t.Fatalf("policies on empty server: %+v", reply.Policies)
	}

	// Two devices upload, a merge round runs, a third pulls the policy.
	if _, err := client.UploadTableSet("dev-000", "note9", "spotify", learner.SingleTableSet(devTable(1)), 0); err != nil {
		t.Fatal(err)
	}
	up, err := client.UploadTableSet("dev-001", "note9", "spotify", learner.SingleTableSet(devTable(2)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if up.Devices != 2 {
		t.Fatalf("devices after second upload = %d", up.Devices)
	}
	info, err := client.Merge("spotify", "note9")
	if err != nil {
		t.Fatal(err)
	}
	if info.Round != 1 || info.Devices != 2 || info.States == 0 {
		t.Fatalf("merge info = %+v", info)
	}
	set, round, err := client.PolicySet("spotify", "note9")
	if err != nil {
		t.Fatal(err)
	}
	if round != 1 || set.Primary().States() != info.States {
		t.Fatalf("policy round=%d states=%d, want round=1 states=%d", round, set.Primary().States(), info.States)
	}

	// The next check-in now advertises the merged policy.
	reply, err = client.Checkin("dev-002", "note9")
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Policies) != 1 || reply.Policies[0].App != "spotify" || reply.Policies[0].Round != 1 {
		t.Fatalf("check-in policies = %+v", reply.Policies)
	}
	// A different platform sees nothing.
	other, err := client.Checkin("dev-003", "sd855")
	if err != nil {
		t.Fatal(err)
	}
	if len(other.Policies) != 0 {
		t.Fatalf("cross-platform policy leak: %+v", other.Policies)
	}

	infos, err := client.Apps("")
	if err != nil || len(infos) != 1 {
		t.Fatalf("apps: %v %v", infos, err)
	}

	health, err := client.Healthz()
	if err != nil {
		t.Fatal(err)
	}
	// Three devices checked in (dev-001 only uploaded; uploads do not
	// count as check-ins), two contributed tables, one policy merged.
	if health.Devices != 3 || health.Merged != 1 || health.DeviceTables != 2 {
		t.Fatalf("health = %+v", health)
	}
}

func TestServerErrorPaths(t *testing.T) {
	_, client, done := newTestServer(t, Config{})
	defer done()

	if _, err := client.Checkin("", "note9"); err == nil {
		t.Fatal("empty device check-in should fail")
	}
	if _, err := client.UploadTableSet("", "note9", "spotify", learner.SingleTableSet(devTable(1)), 0); err == nil {
		t.Fatal("upload without device should fail")
	}
	if _, err := client.Merge("spotify", "note9"); err == nil {
		t.Fatal("merge with no uploads should fail")
	}
	if _, _, err := client.PolicySet("spotify", "note9"); err == nil {
		t.Fatal("policy on empty server should 404")
	}
	if _, err := client.UploadTableSet("d0", "note9", "spotify", learner.SingleTableSet(devTable(1)), 0); err != nil {
		t.Fatal(err)
	}
	mismatched := core.NewQTable(3)
	if _, err := client.UploadTableSet("d1", "note9", "spotify", learner.SingleTableSet(mismatched), 0); err == nil {
		t.Fatal("action mismatch should be rejected")
	}
}

// metricsText scrapes the raw Prometheus exposition through c.
func metricsText(c *Client) (string, error) {
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", apiErrorOf(resp)
	}
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

func TestServerMetricsExposition(t *testing.T) {
	_, client, done := newTestServer(t, Config{})
	defer done()

	client.Checkin("d0", "note9")
	client.UploadTableSet("d0", "note9", "spotify", learner.SingleTableSet(devTable(1)), 0)
	client.Merge("spotify", "note9")
	client.PolicySet("spotify", "note9")
	client.Merge("nosuchapp", "note9") // counted as a merge error

	text, err := metricsText(client)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`fleetd_requests_total{endpoint="checkin"} 1`,
		`fleetd_requests_total{endpoint="upload"} 1`,
		`fleetd_requests_total{endpoint="merge"} 2`,
		`fleetd_requests_total{endpoint="policy"} 1`,
		`fleetd_request_errors_total{endpoint="merge"} 1`,
		`fleetd_merge_latency_us_count 1`,
		`fleetd_devices_seen 1`,
		`fleetd_policies{state="merged"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestServerSnapshotWarmRestart(t *testing.T) {
	dir := t.TempDir()
	_, client, done := newTestServer(t, Config{SnapshotDir: dir})

	if _, err := client.UploadTableSet("d0", "note9", "spotify", learner.SingleTableSet(devTable(4)), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Merge("spotify", "note9"); err != nil {
		t.Fatal(err)
	}
	before, _, err := client.PolicySet("spotify", "note9")
	if err != nil {
		t.Fatal(err)
	}
	done() // server gone

	// A brand-new server over the same directory serves the policy
	// before any device re-uploads.
	_, client2, done2 := newTestServer(t, Config{SnapshotDir: dir})
	defer done2()
	after, round, err := client2.PolicySet("spotify", "note9")
	if err != nil {
		t.Fatal(err)
	}
	if round != 1 {
		t.Fatalf("restored round = %d", round)
	}
	beforeJSON, _ := core.MarshalTableSet("spotify", before, true)
	afterJSON, _ := core.MarshalTableSet("spotify", after, true)
	if string(beforeJSON) != string(afterJSON) {
		t.Fatal("warm-restarted policy differs from pre-restart policy")
	}
}
