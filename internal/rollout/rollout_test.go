package rollout

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
)

// testSet builds a tiny distinct table set: q seeds the values, so two
// calls with different q produce different content hashes.
func testSet(q float64) *learner.TableSet {
	t := core.NewQTable(3)
	t.Q[core.StateKey(1)] = []float64{q, q + 1, q + 2}
	t.Q[core.StateKey(2)] = []float64{q, q - 1, q - 2}
	t.Visits[core.StateKey(1)] = 5
	t.Visits[core.StateKey(2)] = 3
	t.Steps = 10
	return learner.SingleTableSet(t)
}

// testArtifact wraps a test set as an unversioned artifact the way
// cloud.NewArtifact does (rollout cannot import cloud — cloud imports
// rollout).
func testArtifact(t *testing.T, q float64, round int64) Artifact {
	t.Helper()
	set := testSet(q)
	hash, err := core.HashTableSet(set)
	if err != nil {
		t.Fatalf("HashTableSet: %v", err)
	}
	return Artifact{
		ArtifactMeta: core.ArtifactMeta{
			Hash: hash, Learner: learner.DefaultLearner,
			Round: round, Devices: 2, States: set.Primary().States(),
		},
		Set: set,
	}
}

func testManager() *Manager {
	return New(Config{NowUS: func() int64 { return 42 }})
}

// registerFleet registers n fleetsim-named devices and returns the
// names.
func registerFleet(m *Manager, n int) []string {
	devs := make([]string, n)
	for i := range devs {
		devs[i] = fmt.Sprintf("dev-%08d", i)
		m.RegisterDevice(devs[i])
	}
	return devs
}

// report sends one evaluation for the version the device resolved to.
func report(t *testing.T, m *Manager, key, dev string, energy, qos float64) string {
	t.Helper()
	art, _, ok := m.Resolve(key, dev)
	if !ok {
		t.Fatalf("Resolve(%s, %s): no artifact", key, dev)
	}
	cohort, err := m.Report(key, EvalReport{Device: dev, Version: art.Version, EnergyJ: energy, QoSFPS: qos, DurS: 8})
	if err != nil {
		t.Fatalf("Report(%s): %v", dev, err)
	}
	return cohort
}

func TestLifecyclePromote(t *testing.T) {
	m := testManager()
	const key = "spotify@note9"

	// First artifact bootstraps straight to stable: there is no control
	// cohort to canary against.
	v1, err := m.Submit(key, testArtifact(t, 1.0, 1))
	if err != nil {
		t.Fatalf("Submit v1: %v", err)
	}
	if v1.Version != 1 || v1.Parent != 0 || v1.CreatedUS != 42 {
		t.Fatalf("bootstrap artifact = %+v, want version 1, parent 0, created 42", v1.ArtifactMeta)
	}
	if art, cohort, ok := m.Resolve(key, ""); !ok || art.Version != 1 || cohort != CohortStable {
		t.Fatalf("legacy resolve = v%d %q, want v1 %q", art.Version, cohort, CohortStable)
	}

	devs := registerFleet(m, 16)
	v2, err := m.Submit(key, testArtifact(t, 2.0, 2))
	if err != nil {
		t.Fatalf("Submit v2: %v", err)
	}
	if v2.Version != 2 || v2.Parent != 1 {
		t.Fatalf("candidate = %+v, want version 2, parent 1", v2.ArtifactMeta)
	}

	// Stage 1: 100 bps widened by the one-device canary floor to cover
	// the lowest-bucket registered device — dev-00000011 (bucket 349).
	st, ok := m.Status(key)
	if !ok || st.StageBps != 100 || st.EffectiveBps != 350 {
		t.Fatalf("status = %+v, want stage 100 bps, effective 350", st)
	}
	canaries := 0
	for _, d := range devs {
		art, cohort, ok := m.Resolve(key, d)
		if !ok {
			t.Fatalf("Resolve(%s): no artifact", d)
		}
		switch cohort {
		case CohortCanary:
			canaries++
			if d != "dev-00000011" || art.Version != 2 {
				t.Fatalf("canary = %s on v%d, want dev-00000011 on v2", d, art.Version)
			}
		case CohortControl:
			if art.Version != 1 {
				t.Fatalf("control %s resolved v%d, want v1", d, art.Version)
			}
		default:
			t.Fatalf("device %s in cohort %q during active rollout", d, cohort)
		}
	}
	if canaries != 1 {
		t.Fatalf("stage 1 canary cohort = %d devices, want 1", canaries)
	}

	// Healthy canary (same energy/QoS as control) → advance to 10%.
	for _, d := range devs {
		report(t, m, key, d, 100, 60)
	}
	dec, err := m.Advance(key)
	if err != nil {
		t.Fatalf("Advance 1: %v", err)
	}
	if dec.Action != "advance" || dec.Status.StageBps != 1000 {
		t.Fatalf("decision = %s → %d bps, want advance → 1000", dec.Action, dec.Status.StageBps)
	}
	if dec.Canary.Devices != 1 || dec.Control.Devices != 15 {
		t.Fatalf("cohorts = %d/%d, want 1/15", dec.Canary.Devices, dec.Control.Devices)
	}
	if dec.Status.CanaryReports != 0 {
		t.Fatalf("reports not cleared after advance: %d", dec.Status.CanaryReports)
	}

	// Stage 2: 1000 bps — dev-00000011 (349) stays canary, others per
	// the golden buckets (none of the other first 16 are under 1000).
	for _, d := range devs {
		report(t, m, key, d, 100, 60)
	}
	dec, err = m.Advance(key)
	if err != nil {
		t.Fatalf("Advance 2: %v", err)
	}
	if dec.Action != "promote" {
		t.Fatalf("decision = %s, want promote", dec.Action)
	}
	st, _ = m.Status(key)
	if st.Stable == nil || st.Stable.Version != 2 || st.Candidate != nil {
		t.Fatalf("after promote: %+v, want stable v2, no candidate", st)
	}
	for _, d := range devs {
		if art, cohort, _ := m.Resolve(key, d); art.Version != 2 || cohort != CohortStable {
			t.Fatalf("%s resolved v%d %q after promote, want v2 %q", d, art.Version, cohort, CohortStable)
		}
	}
}

// TestLifecycleRollback drives the two rollback guards from both sides
// of their 5% thresholds: a canary 4% worse than control advances, one
// 6% worse (or far worse) rolls back.
func TestLifecycleRollback(t *testing.T) {
	for _, tc := range []struct {
		name               string
		canaryE, canaryQ   float64
		controlE, controlQ float64
		wantAction         string
		wantReasonContains string
	}{
		{"energy-regress", 110, 60, 100, 60, "rollback", "energy"},
		{"energy+4%", 104, 60, 100, 60, "advance", ""},
		{"energy+6%", 106, 60, 100, 60, "rollback", "energy"},
		{"qos-drop", 100, 50, 100, 60, "rollback", "QoS"},
		{"qos-4%", 100, 57.6, 100, 60, "advance", ""},
		{"qos-6%", 100, 56.4, 100, 60, "rollback", "QoS"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := testManager()
			const key = "spotify@note9"
			if _, err := m.Submit(key, testArtifact(t, 1.0, 1)); err != nil {
				t.Fatal(err)
			}
			devs := registerFleet(m, 16)
			if _, err := m.Submit(key, testArtifact(t, 2.0, 2)); err != nil {
				t.Fatal(err)
			}
			for _, d := range devs {
				if _, cohort, _ := m.Resolve(key, d); cohort == CohortCanary {
					report(t, m, key, d, tc.canaryE, tc.canaryQ)
				} else {
					report(t, m, key, d, tc.controlE, tc.controlQ)
				}
			}
			dec, err := m.Advance(key)
			if err != nil {
				t.Fatalf("Advance: %v", err)
			}
			if dec.Action != tc.wantAction || !strings.Contains(dec.Reason, tc.wantReasonContains) {
				t.Fatalf("decision = %s (%s), want %s mentioning %q", dec.Action, dec.Reason, tc.wantAction, tc.wantReasonContains)
			}
			st, _ := m.Status(key)
			if tc.wantAction == "advance" {
				if st.Candidate == nil || st.Candidate.Version != 2 || st.StageBps != 1000 || st.Rollbacks != 0 {
					t.Fatalf("after advance: %+v, want candidate v2 at 1000 bps, no rollback", st)
				}
				return
			}
			if st.Stable.Version != 1 || st.Candidate != nil || st.Rollbacks != 1 {
				t.Fatalf("after rollback: %+v, want stable v1, no candidate, 1 rollback", st)
			}
			if m.RollbacksTotal() != 1 {
				t.Fatalf("RollbacksTotal = %d, want 1", m.RollbacksTotal())
			}
			// Canary devices are back on last-good.
			for _, d := range devs {
				if art, cohort, _ := m.Resolve(key, d); art.Version != 1 || cohort != CohortStable {
					t.Fatalf("%s resolved v%d %q after rollback, want v1 %q", d, art.Version, cohort, CohortStable)
				}
			}
			// The rolled-back artifact stays in the history until evicted.
			if !slices.Equal(st.Versions, []int64{1, 2}) {
				t.Fatalf("versions after rollback = %v, want [1 2]", st.Versions)
			}
		})
	}
}

func TestSubmitDedupAndSupersede(t *testing.T) {
	m := testManager()
	const key = "spotify@note9"
	a1 := testArtifact(t, 1.0, 1)
	if _, err := m.Submit(key, a1); err != nil {
		t.Fatal(err)
	}
	// Identical content re-submitted: no version bump.
	again, err := m.Submit(key, testArtifact(t, 1.0, 7))
	if err != nil {
		t.Fatal(err)
	}
	if again.Version != 1 {
		t.Fatalf("identical re-submit minted v%d, want v1 (dedup by hash)", again.Version)
	}
	// A differing merge becomes the candidate.
	if v2, _ := m.Submit(key, testArtifact(t, 2.0, 3)); v2.Version != 2 {
		t.Fatalf("candidate version = %d, want 2", v2.Version)
	}
	// Uploads converge back to stable content: candidate cancelled.
	back, err := m.Submit(key, testArtifact(t, 1.0, 4))
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != 1 {
		t.Fatalf("converged submit = v%d, want v1", back.Version)
	}
	st, _ := m.Status(key)
	if st.Candidate != nil || st.LastAction != "superseded" {
		t.Fatalf("status = %+v, want cancelled candidate (superseded)", st)
	}
	// A candidate resubmitted identically stays the same version.
	if v3, _ := m.Submit(key, testArtifact(t, 3.0, 5)); v3.Version != 3 {
		t.Fatalf("want v3")
	}
	if v3b, _ := m.Submit(key, testArtifact(t, 3.0, 6)); v3b.Version != 3 {
		t.Fatalf("candidate re-submit minted v%d, want v3", v3b.Version)
	}
}

func TestAdvanceNeedsReports(t *testing.T) {
	m := testManager()
	const key = "spotify@note9"
	if _, err := m.Advance(key); err == nil {
		t.Fatal("Advance with no rollout succeeded")
	}
	if _, err := m.Submit(key, testArtifact(t, 1.0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Advance(key); err == nil {
		t.Fatal("Advance with only a stable artifact succeeded")
	}
	registerFleet(m, 16)
	if _, err := m.Submit(key, testArtifact(t, 2.0, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Advance(key); err == nil || !strings.Contains(err.Error(), "reports") {
		t.Fatalf("Advance without reports = %v, want insufficient-reports error", err)
	}
	// A report for a version that is neither stable nor candidate is
	// rejected — stale evidence must not steer the rollout.
	if _, err := m.Report(key, EvalReport{Device: "dev-00000000", Version: 9}); err == nil {
		t.Fatal("report for unknown version accepted")
	}
}

// TestVersionStoreBounded promotes more artifacts than the history
// holds: the oldest go first, and the store keeps the last maxVersions.
func TestVersionStoreBounded(t *testing.T) {
	m := testManager()
	const key = "spotify@note9"
	registerFleet(m, 16)
	const submits = maxVersions + 3
	for i := 0; i < submits; i++ {
		if _, err := m.Submit(key, testArtifact(t, float64(i), int64(i+1))); err != nil {
			t.Fatal(err)
		}
		// Promote each candidate so history accumulates stables.
		if i > 0 {
			for _, d := range []string{"dev-00000011", "dev-00000000"} {
				report(t, m, key, d, 100, 60)
			}
			if _, err := m.Advance(key); err != nil {
				t.Fatal(err)
			}
			for _, d := range []string{"dev-00000011", "dev-00000000"} {
				report(t, m, key, d, 100, 60)
			}
			if _, err := m.Advance(key); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, _ := m.Status(key)
	want := make([]int64, 0, maxVersions)
	for v := int64(submits - maxVersions + 1); v <= submits; v++ {
		want = append(want, v)
	}
	if !slices.Equal(st.Versions, want) {
		t.Fatalf("version store holds %v, want %v", st.Versions, want)
	}
	if st.Stable.Version != submits {
		t.Fatalf("stable = v%d, want v%d", st.Stable.Version, submits)
	}
}

// TestRegisterDeviceFloor follows the one-device canary floor as
// devices register: with none registered the stage's 100 bps stands;
// each registration can only lower the floor to the lowest registered
// bucket, and repeat or empty registrations change nothing.
func TestRegisterDeviceFloor(t *testing.T) {
	m := testManager()
	const key = "spotify@note9"
	if _, err := m.Submit(key, testArtifact(t, 1.0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(key, testArtifact(t, 2.0, 2)); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		register string
		want     uint32
	}{
		{"", 100},              // nothing registered: the raw stage
		{"dev-00000005", 1117}, // bucket 1116
		{"dev-00000011", 350},  // bucket 349 is lower
		{"dev-00000005", 350},  // re-registering changes nothing
		{"", 350},
	} {
		m.RegisterDevice(step.register)
		if st, _ := m.Status(key); st.StageBps != 100 || st.EffectiveBps != step.want {
			t.Fatalf("after registering %q: stage %d bps, effective %d; want 100, %d",
				step.register, st.StageBps, st.EffectiveBps, step.want)
		}
	}
	canaries := 0
	for i := 0; i < 16; i++ {
		if _, cohort, _ := m.Resolve(key, fmt.Sprintf("dev-%08d", i)); cohort == CohortCanary {
			canaries++
		}
	}
	if canaries != 1 {
		t.Fatalf("canary cohort = %d devices, want 1 (dev-00000011)", canaries)
	}
}
