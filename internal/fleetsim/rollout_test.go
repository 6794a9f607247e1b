package fleetsim

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"nextdvfs/internal/core"
	"nextdvfs/internal/fleetd"
	"nextdvfs/internal/rollout"
)

func newRolloutServer(t *testing.T) (string, func()) {
	t.Helper()
	srv, err := fleetd.NewServer(fleetd.Config{Rollout: &rollout.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	return ts.URL, ts.Close
}

// abOptions is the pinned A/B configuration both lifecycle tests run:
// chrome is clock-sensitive enough that a degraded policy measurably
// regresses, and 16 devices pin the cohort split (dev-00000011 is the
// sole canary, per the bucket golden tests).
func abOptions(sabotage bool) Options {
	return Options{
		Devices: 16, Sessions: 1, SessionSecs: 6, Seed: 1, App: "chrome",
		Rollout: &RolloutOptions{Sabotage: sabotage},
	}
}

// TestRolloutPromoteE2E pins the healthy path end to end: a candidate
// trained one generation further promotes 1% → 10% → 100% in exactly
// two judged rounds, and ETag revalidation elides every redundant
// download after round 1.
func TestRolloutPromoteE2E(t *testing.T) {
	url, done := newRolloutServer(t)
	defer done()
	rep, err := Run(url, abOptions(false))
	if err != nil {
		t.Fatal(err)
	}
	ro := rep.Rollout
	if ro == nil {
		t.Fatal("A/B run produced no rollout report")
	}
	if ro.StableVersion != 1 || ro.CandidateVersion != 2 {
		t.Fatalf("artifact versions = v%d stable, v%d candidate; want v1/v2", ro.StableVersion, ro.CandidateVersion)
	}
	if ro.Outcome != "promote" || ro.FinalVersion != 2 || ro.Rollbacks != 0 {
		t.Fatalf("outcome = %q final v%d rollbacks %d; want promote to v2", ro.Outcome, ro.FinalVersion, ro.Rollbacks)
	}
	if len(ro.Rounds) != 2 || ro.Rounds[0].Action != "advance" || ro.Rounds[1].Action != "promote" {
		t.Fatalf("rounds = %+v, want advance then promote", ro.Rounds)
	}
	// Neither artifact changes between rounds 1 and 2, so every round-2
	// download (all 16 devices) revalidates via If-None-Match.
	if ro.Skipped304 != 16 {
		t.Fatalf("skipped downloads = %d, want 16 (one 304 per device in round 2)", ro.Skipped304)
	}
	// Both cohorts measured: the deterministic shared-seed replay puts
	// canary and control on the same session, so their QoS agrees to
	// within the promote guard while the policies are healthy.
	r1 := ro.Rounds[0]
	if r1.Canary.Devices != 1 || r1.Control.Devices != 15 {
		t.Fatalf("round 1 cohorts = %d canary / %d control, want 1/15", r1.Canary.Devices, r1.Control.Devices)
	}
	if r1.Canary.AvgEnergyJ <= 0 || r1.Control.AvgEnergyJ <= 0 || r1.Canary.AvgQoSFPS <= 0 {
		t.Fatalf("round 1 stats not measured: %+v", r1)
	}

	// The cohort columns appear in the summary for A/B runs.
	var buf bytes.Buffer
	rep.WriteSummary(&buf)
	out := buf.String()
	for _, want := range []string{"rollout: stable v1, candidate v2 → promote", "canary J", "control fps", "promote"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestRolloutAutoRollbackE2E pins the degraded path: sabotaged uploads
// produce a candidate whose canary cohort burns measurably more energy,
// and the server rolls the fleet back to the last-good artifact in the
// first judged round.
func TestRolloutAutoRollbackE2E(t *testing.T) {
	url, done := newRolloutServer(t)
	defer done()
	rep, err := Run(url, abOptions(true))
	if err != nil {
		t.Fatal(err)
	}
	ro := rep.Rollout
	if ro.Outcome != "rollback" || ro.FinalVersion != 1 || ro.Rollbacks != 1 {
		t.Fatalf("outcome = %q final v%d rollbacks %d; want rollback to v1", ro.Outcome, ro.FinalVersion, ro.Rollbacks)
	}
	if len(ro.Rounds) != 1 || ro.Rounds[0].Action != "rollback" {
		t.Fatalf("rounds = %+v, want a single rollback round", ro.Rounds)
	}
	r1 := ro.Rounds[0]
	if !strings.Contains(r1.Reason, "energy") {
		t.Fatalf("rollback reason = %q, want the energy guard", r1.Reason)
	}
	// The regression is physical, not marginal: the GPU-floor policy
	// costs well past the 5% guard on the shared replay.
	if r1.Canary.AvgEnergyJ < r1.Control.AvgEnergyJ*1.10 {
		t.Fatalf("canary %.2f J vs control %.2f J — sabotage no longer regresses measurably",
			r1.Canary.AvgEnergyJ, r1.Control.AvgEnergyJ)
	}

	var buf bytes.Buffer
	rep.WriteSummary(&buf)
	if !strings.Contains(buf.String(), "rollback") || !strings.Contains(buf.String(), "energy") {
		t.Fatalf("summary missing rollback reason:\n%s", buf.String())
	}
}

// TestRolloutModeRejectsCombos pins the mode's surface: a plain server
// (no lifecycle) fails fast instead of silently degrading.
func TestRolloutModeRejectsCombos(t *testing.T) {
	srv, err := fleetd.NewServer(fleetd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	small := abOptions(false)
	small.Devices = 2
	if _, err := Run(ts.URL, small); err == nil || !strings.Contains(err.Error(), "lifecycle") {
		t.Fatalf("A/B against plain server = %v, want lifecycle error", err)
	}
}

// TestSummaryDefaultUnchanged pins that plain (non-A/B) runs print a
// summary with no rollout section — the default output is
// byte-identical to pre-lifecycle builds.
func TestSummaryDefaultUnchanged(t *testing.T) {
	var buf bytes.Buffer
	Report{Options: Options{Devices: 2}, Devices: make([]DeviceResult, 2)}.WriteSummary(&buf)
	if strings.Contains(buf.String(), "rollout") {
		t.Fatalf("plain summary mentions rollout:\n%s", buf.String())
	}
}

// TestRolloutHonoursBinary pins that an A/B run with Binary set ships
// every table upload in the binary codec, as every other mode does.
func TestRolloutHonoursBinary(t *testing.T) {
	srv, err := fleetd.NewServer(fleetd.Config{Rollout: &rollout.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	types := map[string]int{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/table" {
			mu.Lock()
			types[r.Header.Get("Content-Type")]++
			mu.Unlock()
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	opts := abOptions(false)
	opts.Binary = true
	if _, err := Run(ts.URL, opts); err != nil {
		t.Fatal(err)
	}
	if want := 2 * opts.Devices; len(types) != 1 || types[core.TableSetMediaType] != want {
		t.Fatalf("upload content types = %v, want %d uploads of %s", types, want, core.TableSetMediaType)
	}
}

// TestRolloutRejectsEpochs pins that Options.Epochs, which does not
// apply to A/B runs, is rejected instead of silently ignored.
func TestRolloutRejectsEpochs(t *testing.T) {
	url, done := newRolloutServer(t)
	defer done()
	opts := abOptions(false)
	opts.Epochs = 3
	if _, err := Run(url, opts); err == nil || !strings.Contains(err.Error(), "epochs") {
		t.Fatalf("A/B run with Epochs 3 = %v, want rejection", err)
	}
}
