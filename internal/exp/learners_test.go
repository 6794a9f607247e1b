package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"nextdvfs/internal/learner"
	"nextdvfs/internal/workload"
)

// The -learners acceptance pin: the learner comparison grid — every
// registered learner — is byte-identical at -parallel 1 and -parallel 8,
// both as marshalled rows and as the exact bytes cmd/nextbench
// -learners prints.
func TestLearnerGridParallelByteIdentical(t *testing.T) {
	run := func(parallel int) ([]LearnerRow, []byte) {
		rows, err := LearnerGrid(LearnerGridOptions{
			Seed:        42,
			Apps:        []string{workload.NameSpotify},
			MaxSessions: 2,
			SessionSecs: 30,
			Parallel:    parallel,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		WriteLearnerGrid(&buf, rows)
		return rows, buf.Bytes()
	}
	rows1, out1 := run(1)
	rows8, out8 := run(8)
	j1, _ := json.Marshal(rows1)
	j8, _ := json.Marshal(rows8)
	if !bytes.Equal(j1, j8) {
		t.Fatal("learner grid rows differ between -parallel 1 and -parallel 8")
	}
	if !bytes.Equal(out1, out8) {
		t.Fatalf("printed learner grid differs between -parallel 1 and -parallel 8:\n%s\n--- vs ---\n%s", out1, out8)
	}

	// One row per registered learner, in registry order, each with a
	// real evaluation on both sides.
	names := learner.Names()
	if len(rows1) != len(names) {
		t.Fatalf("%d rows, want %d", len(rows1), len(names))
	}
	for i, name := range names {
		r := rows1[i]
		if r.Learner != name || r.App != workload.NameSpotify {
			t.Fatalf("row %d = %s/%s, want %s/spotify", i, r.Learner, r.App, name)
		}
		if r.Sched.AvgPowerW <= 0 || r.Next.AvgPowerW <= 0 || r.Steps == 0 {
			t.Fatalf("row %d (%s) has empty results: %+v", i, name, r)
		}
	}
}

func TestLearnerGridRejectsUnknownNames(t *testing.T) {
	if _, err := LearnerGrid(LearnerGridOptions{Learners: []string{"nope"}}); err == nil {
		t.Fatal("unknown learner should error")
	}
	if _, err := LearnerGrid(LearnerGridOptions{Explorer: "nope"}); err == nil {
		t.Fatal("unknown explorer should error")
	}
	if _, err := LearnerGrid(LearnerGridOptions{Apps: []string{"nope"}}); err == nil {
		t.Fatal("unknown app should error")
	}
	if _, err := LearnerGrid(LearnerGridOptions{Platform: "nope"}); err == nil {
		t.Fatal("unknown platform should error")
	}
}

// The scenario grid's learner dimension: agent-training schemes fan out
// per learner, governor schemes do not, and the learner column appears
// in the printout exactly when a non-default learner is present.
func TestScenarioGridLearnerDimension(t *testing.T) {
	rows, err := ScenarioGrid(ScenarioOptions{
		Seed:          42,
		Scenarios:     []string{"commute"},
		Schemes:       []string{"schedutil", "next"},
		Learners:      []string{"watkins", "doubleq"},
		DurationScale: 0.02,
		TrainSessions: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// schedutil has no learner dimension: 1 cell; next: 2 cells.
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if rows[0].Scheme != "schedutil" || rows[0].Learner != "" {
		t.Fatalf("governor row carries a learner: %+v", rows[0])
	}
	if rows[1].Learner != "watkins" || rows[2].Learner != "doubleq" {
		t.Fatalf("learner order broken: %+v / %+v", rows[1], rows[2])
	}
	// Both learners replay the identical evaluation timeline; the rows
	// must differ only through the update rule, and each must be a real
	// result.
	for _, r := range rows[1:] {
		if r.Result.AvgPowerW <= 0 {
			t.Fatalf("%s: empty result", r.Learner)
		}
	}

	var buf bytes.Buffer
	WriteScenarioGrid(&buf, rows)
	if !strings.Contains(buf.String(), "learner") || !strings.Contains(buf.String(), "doubleq") {
		t.Fatalf("learner column missing from mixed-learner grid:\n%s", buf.String())
	}

	// Default grids must keep the historical layout: no learner column.
	defRows, err := ScenarioGrid(ScenarioOptions{
		Seed: 42, Scenarios: []string{"commute"}, Schemes: []string{"schedutil"},
		DurationScale: 0.02, TrainSessions: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	WriteScenarioGrid(&buf, defRows)
	if strings.Contains(buf.String(), "learner") {
		t.Fatalf("default grid grew a learner column:\n%s", buf.String())
	}
}

func TestScenarioGridRejectsUnknownLearner(t *testing.T) {
	if _, err := ScenarioGrid(ScenarioOptions{Learners: []string{"nope"}}); err == nil {
		t.Fatal("unknown learner should error")
	}
	if _, err := ScenarioGrid(ScenarioOptions{Explorer: "nope"}); err == nil {
		t.Fatal("unknown explorer should error")
	}
}

// The scheme registry contract: the unknown-scheme error enumerates the
// registered set dynamically, so it can never drift from reality.
func TestSchemeRegistryErrorEnumeratesRegistry(t *testing.T) {
	_, err := GetScheme("nope")
	if err == nil {
		t.Fatal("unknown scheme accepted")
	}
	for _, name := range Schemes() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not mention registered scheme %q", err, name)
		}
	}
	if len(Schemes()) < 6 {
		t.Fatalf("schemes registered = %d, want the full set", len(Schemes()))
	}
	if spec, err := GetScheme(""); err != nil || spec.Name != "schedutil" {
		t.Fatalf(`GetScheme("") = %q, %v; want schedutil`, spec.Name, err)
	}
	for _, name := range Schemes() {
		spec, err := GetScheme(name)
		if err != nil || spec.Configure == nil {
			t.Fatalf("%s: incomplete spec (%v)", name, err)
		}
		if (name == "next") != spec.TrainsAgent {
			t.Fatalf("%s: TrainsAgent = %v", name, spec.TrainsAgent)
		}
	}
}
