package fleetd

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nextdvfs/internal/learner"
	"nextdvfs/internal/rollout"
)

// newRolloutServer builds a rollout-enabled test server, also returning
// its base URL for raw-wire assertions the typed client would hide.
func newRolloutServer(t *testing.T, cfg Config) (*Server, *Client, string, func()) {
	t.Helper()
	if cfg.Rollout == nil {
		cfg.Rollout = &rollout.Config{NowUS: func() int64 { return 1000 }}
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	return srv, NewClient(ts.URL), ts.URL, ts.Close
}

// checkinFleet registers n fleetsim-named devices so the cohort floor
// sees the same device population the bucket golden tests pin.
func checkinFleet(t *testing.T, client *Client, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := client.Checkin(fmt.Sprintf("dev-%08d", i), "note9"); err != nil {
			t.Fatal(err)
		}
	}
}

// rolloutStatuses lists every policy's rollout state (GET /v1/rollout).
func rolloutStatuses(c *Client) ([]rollout.Status, error) {
	resp, err := c.http.Get(c.base + "/v1/rollout")
	if err != nil {
		return nil, err
	}
	var sts []rollout.Status
	err = c.decode(resp, &sts)
	return sts, err
}

// trainAndMerge uploads tables from two devices and runs a merge round.
func trainAndMerge(t *testing.T, client *Client, seedA, seedB int) MergeInfo {
	t.Helper()
	if _, err := client.UploadTableSet("dev-00000000", "note9", "spotify", learner.SingleTableSet(devTable(seedA)), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := client.UploadTableSet("dev-00000001", "note9", "spotify", learner.SingleTableSet(devTable(seedB)), 0); err != nil {
		t.Fatal(err)
	}
	info, err := client.Merge("spotify", "note9")
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestRolloutLifecycleE2E drives the full healthy path over the wire:
// bootstrap v1 → candidate v2 canaries at 1% (widened to the cohort
// floor) → healthy reports advance to 10% → promote to 100%, with
// version negotiation skipping redundant downloads along the way.
func TestRolloutLifecycleE2E(t *testing.T) {
	dir := t.TempDir()
	srv, client, _, done := newRolloutServer(t, Config{SnapshotDir: dir})
	defer done()

	checkinFleet(t, client, 16)

	// Round 1 bootstraps the first artifact straight to stable.
	info := trainAndMerge(t, client, 1, 2)
	if info.Round != 1 || info.Version != 1 {
		t.Fatalf("bootstrap merge = %+v, want round 1 version 1", info)
	}
	st, err := client.RolloutStatus("spotify", "note9")
	if err != nil {
		t.Fatal(err)
	}
	if st.Stable == nil || st.Stable.Version != 1 || st.Candidate != nil || st.LastAction != "bootstrap" {
		t.Fatalf("post-bootstrap status = %+v", st)
	}

	// Round 2: training continued, the merge differs → candidate v2.
	info = trainAndMerge(t, client, 3, 4)
	if info.Round != 2 || info.Version != 2 {
		t.Fatalf("candidate merge = %+v, want round 2 version 2", info)
	}
	st, _ = client.RolloutStatus("spotify", "note9")
	if st.Candidate == nil || st.Candidate.Version != 2 || st.Candidate.Parent != 1 {
		t.Fatalf("candidate status = %+v", st)
	}
	if st.StageBps != 100 || st.EffectiveBps != 350 {
		// 16 registered fleetsim devices: the lowest bucket is
		// dev-00000011 at 349, so the 1% stage widens to 350 bps to
		// cover the one-device canary floor (pinned by the bucket golden test).
		t.Fatalf("stage = %d/%d bps, want 100/350", st.StageBps, st.EffectiveBps)
	}

	// Cohort resolution: dev-00000011 is the sole canary, everyone else
	// stays on stable v1.
	set, meta, modified, err := client.PolicyForDevice("dev-00000011", "spotify", "note9", "")
	if err != nil || !modified || set == nil {
		t.Fatalf("canary download = set %v, modified %v, err %v", set, modified, err)
	}
	if meta.Version != 2 || meta.Cohort != rollout.CohortCanary {
		t.Fatalf("canary meta = %+v, want v2 canary", meta)
	}
	ctrlSet, ctrlMeta, _, err := client.PolicyForDevice("dev-00000000", "spotify", "note9", "")
	if err != nil || ctrlSet == nil {
		t.Fatal(err)
	}
	if ctrlMeta.Version != 1 || ctrlMeta.Cohort != rollout.CohortControl {
		t.Fatalf("control meta = %+v, want v1 control", ctrlMeta)
	}

	// Version negotiation: echoing the ETag back skips the download.
	if set2, meta2, modified2, err := client.PolicyForDevice("dev-00000011", "spotify", "note9", meta.ETag); err != nil ||
		modified2 || set2 != nil || meta2.Version != 2 {
		t.Fatalf("If-None-Match revalidation = set %v, meta %+v, modified %v, err %v", set2, meta2, modified2, err)
	}

	// Healthy canary evidence at each stage; two judgments promote.
	report := func(device string, version int64) {
		t.Helper()
		reply, err := client.ReportEval("spotify", "note9", rollout.EvalReport{
			Device: device, Version: version, EnergyJ: 100, QoSFPS: 60, DurS: 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := rollout.CohortControl
		if version == 2 {
			want = rollout.CohortCanary
		}
		if reply.Cohort != want {
			t.Fatalf("report %s v%d counted as %q, want %q", device, version, reply.Cohort, want)
		}
	}
	report("dev-00000011", 2)
	report("dev-00000000", 1)
	d, err := client.RolloutAdvance("spotify", "note9")
	if err != nil || d.Action != "advance" {
		t.Fatalf("first advance = %+v, %v", d, err)
	}
	if d.Status.StageBps != 1000 || d.Status.CanaryReports != 0 {
		t.Fatalf("post-advance status = %+v, want 1000 bps and a clean report slate", d.Status)
	}
	report("dev-00000011", 2)
	report("dev-00000000", 1)
	d, err = client.RolloutAdvance("spotify", "note9")
	if err != nil || d.Action != "promote" {
		t.Fatalf("second advance = %+v, %v", d, err)
	}

	// Promotion: the whole fleet now resolves to v2.
	for _, dev := range []string{"dev-00000000", "dev-00000011"} {
		if _, m, _, err := client.PolicyForDevice(dev, "spotify", "note9", ""); err != nil ||
			m.Version != 2 || m.Cohort != rollout.CohortStable {
			t.Fatalf("%s after promote = %+v, %v; want v2 stable", dev, m, err)
		}
	}

	// The lifecycle survives a warm restart from the snapshot dir.
	done()
	srv2, err := NewServer(Config{SnapshotDir: dir, Rollout: &rollout.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	st2, ok := srv2.Rollout().Status("spotify@note9")
	if !ok || st2.Stable == nil || st2.Stable.Version != 2 || st2.Stable.Hash != srvStableHash(srv) {
		t.Fatalf("status after restart = %+v (ok=%v)", st2, ok)
	}
}

func srvStableHash(s *Server) string {
	st, _ := s.Rollout().Status("spotify@note9")
	return st.Stable.Hash
}

// TestRolloutAutoRollbackE2E submits a degraded candidate: the canary
// cohort's energy regression trips the automatic rollback and the fleet
// returns to the last-good artifact.
func TestRolloutAutoRollbackE2E(t *testing.T) {
	_, client, _, done := newRolloutServer(t, Config{})
	defer done()

	checkinFleet(t, client, 16)
	trainAndMerge(t, client, 1, 2)
	info := trainAndMerge(t, client, 9, 10)
	if info.Version != 2 {
		t.Fatalf("candidate merge = %+v", info)
	}

	// Canary burns 20% more energy than control.
	if _, err := client.ReportEval("spotify", "note9", rollout.EvalReport{
		Device: "dev-00000011", Version: 2, EnergyJ: 120, QoSFPS: 60,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.ReportEval("spotify", "note9", rollout.EvalReport{
		Device: "dev-00000000", Version: 1, EnergyJ: 100, QoSFPS: 60,
	}); err != nil {
		t.Fatal(err)
	}
	d, err := client.RolloutAdvance("spotify", "note9")
	if err != nil || d.Action != "rollback" || !strings.Contains(d.Reason, "energy") {
		t.Fatalf("advance on degraded canary = %+v, %v; want energy rollback", d, err)
	}

	// The canary device is back on the last-good artifact.
	if _, m, _, err := client.PolicyForDevice("dev-00000011", "spotify", "note9", ""); err != nil ||
		m.Version != 1 || m.Cohort != rollout.CohortStable {
		t.Fatalf("canary after rollback = %+v, %v; want v1 stable", m, err)
	}
	st, _ := client.RolloutStatus("spotify", "note9")
	if st.Rollbacks != 1 || st.Candidate != nil {
		t.Fatalf("status after rollback = %+v", st)
	}
	// The rolled-back version stays inspectable for post-mortems.
	if len(st.Versions) != 2 {
		t.Fatalf("version history after rollback = %v", st.Versions)
	}

	// A report against the retired candidate version is now rejected.
	if _, err := client.ReportEval("spotify", "note9", rollout.EvalReport{
		Device: "dev-00000011", Version: 2, EnergyJ: 100, QoSFPS: 60,
	}); err == nil {
		t.Fatal("report accepted with no active rollout")
	}

	// Operator rollback needs an active candidate too.
	if _, err := client.rolloutAction("rollback", "spotify", "note9"); err == nil {
		t.Fatal("rollback accepted with no active candidate")
	}
}

// TestRolloutLegacyByteIdentity pins the compatibility contract: a
// legacy unversioned client (no device param) gets byte-for-byte the
// same policy payload from a rollout-enabled server as from a plain
// one, and never sees a candidate.
func TestRolloutLegacyByteIdentity(t *testing.T) {
	_, plainClient, plainURL, plainDone := func() (*Server, *Client, string, func()) {
		srv, err := NewServer(Config{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		return srv, NewClient(ts.URL), ts.URL, ts.Close
	}()
	defer plainDone()
	_, rollClient, rollURL, rollDone := newRolloutServer(t, Config{})
	defer rollDone()

	get := func(base string) []byte {
		resp, err := http.Get(base + "/v1/policy?app=spotify&platform=note9")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("policy status = %s", resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	for _, c := range []*Client{plainClient, rollClient} {
		checkinFleet(t, c, 16)
		trainAndMerge(t, c, 1, 2) // identical uploads → identical merged set
	}
	plain, rolled := get(plainURL), get(rollURL)
	if string(plain) != string(rolled) {
		t.Fatalf("legacy policy payload drifted under rollout:\nplain: %s\nrollout: %s", plain, rolled)
	}

	// With a candidate in flight the legacy payload is still the STABLE
	// artifact, byte-identical to what it was before the candidate
	// appeared — unversioned clients cannot report evaluations, so they
	// must never run unvetted policies.
	trainAndMerge(t, rollClient, 3, 4)
	if st, _ := rollClient.RolloutStatus("spotify", "note9"); st.Candidate == nil {
		t.Fatal("expected an in-flight candidate")
	}
	if during := get(rollURL); string(during) != string(rolled) {
		t.Fatalf("legacy payload changed while a candidate is in flight:\nbefore: %s\nduring: %s", rolled, during)
	}
}

// TestRolloutDisabledByDefault pins zero behavior change on servers
// without the lifecycle: no artifact versions in merge replies and 404s
// on the lifecycle endpoints.
func TestRolloutDisabledByDefault(t *testing.T) {
	_, client, _, done := func() (*Server, *Client, string, func()) {
		srv, err := NewServer(Config{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		return srv, NewClient(ts.URL), ts.URL, ts.Close
	}()
	defer done()

	info := trainAndMerge(t, client, 1, 2)
	if info.Version != 0 {
		t.Fatalf("merge on plain server minted version %d", info.Version)
	}
	if _, err := rolloutStatuses(client); err == nil || !strings.Contains(err.Error(), "not enabled") {
		t.Fatalf("rollout status on plain server = %v, want not-enabled error", err)
	}
	if _, err := client.RolloutAdvance("spotify", "note9"); err == nil {
		t.Fatal("advance accepted on plain server")
	}
	if _, err := client.ReportEval("spotify", "note9", rollout.EvalReport{Device: "d0", Version: 1}); err == nil {
		t.Fatal("report accepted on plain server")
	}
	text, err := metricsText(client)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(text, "fleetd_rollout_") {
		t.Fatalf("plain server exposes rollout metrics:\n%s", text)
	}
}

// TestRolloutMetricsExposition covers the lifecycle gauges on a
// rollout-enabled scrape.
func TestRolloutMetricsExposition(t *testing.T) {
	_, client, _, done := newRolloutServer(t, Config{})
	defer done()

	checkinFleet(t, client, 16)
	trainAndMerge(t, client, 1, 2)
	trainAndMerge(t, client, 9, 10)
	client.ReportEval("spotify", "note9", rollout.EvalReport{Device: "dev-00000011", Version: 2, EnergyJ: 150, QoSFPS: 60})
	client.ReportEval("spotify", "note9", rollout.EvalReport{Device: "dev-00000000", Version: 1, EnergyJ: 100, QoSFPS: 60})
	if d, err := client.RolloutAdvance("spotify", "note9"); err != nil || d.Action != "rollback" {
		t.Fatalf("advance = %+v, %v", d, err)
	}

	text, err := metricsText(client)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`fleetd_rollout_version{policy="spotify@note9",state="stable"} 1`,
		`fleetd_rollout_stage_bps{policy="spotify@note9",kind="stage"} 0`,
		`fleetd_rollout_cohort_reports{policy="spotify@note9",cohort="canary"} 0`,
		`fleetd_rollout_rollbacks_total 1`,
		`fleetd_artifact_mint_latency_us_count 2`,
		`fleetd_requests_total{endpoint="rollout"} 1`,
		`fleetd_requests_total{endpoint="report"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}
