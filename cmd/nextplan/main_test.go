package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nextdvfs/internal/plan"
)

// writePlan writes a one-cell plan (powersave on note9) with the given
// SLO block and returns its path.
func writePlan(t *testing.T, dir, slo string) string {
	t.Helper()
	path := filepath.Join(dir, "plan.json")
	body := `{"name":"t","seed":7,"slo":` + slo + `,"grid":{"scenarios":["doomscroll"],"platforms":["note9"],"schemes":["powersave"]},"duration_scale":0.01}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// A typoed results path must fail analyze, not report an empty sweep.
func TestAnalyzeRefusesMissingResults(t *testing.T) {
	dir := t.TempDir()
	planPath := writePlan(t, dir, `{}`)
	err := analyzeCmd([]string{"-plan", planPath, "-results", filepath.Join(dir, "typo.jsonl")}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "no such file") {
		t.Fatalf("analyze of a missing results file: err = %v, want no such file", err)
	}
}

// Analyze fails whenever no cell passes: when every cell fails the SLO,
// and when the results file holds no row for the plan.
func TestAnalyzeFailsWithoutCheapestCell(t *testing.T) {
	dir := t.TempDir()
	results := filepath.Join(dir, "results.jsonl")
	strict := writePlan(t, dir, `{"min_active_fps":1000}`)
	p, err := plan.Load(strict)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Run(p, results, plan.RunOptions{Provenance: &plan.Provenance{Git: "test", Host: "test"}}); err != nil {
		t.Fatal(err)
	}
	err = analyzeCmd([]string{"-plan", strict, "-results", results}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "no configuration meets the SLO") {
		t.Fatalf("analyze with every cell failing: err = %v", err)
	}
	if err := analyzeCmd([]string{"-plan", writePlan(t, dir, `{}`), "-results", results}, io.Discard); err != nil {
		t.Fatalf("analyze with a passing cell: %v", err)
	}

	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	err = analyzeCmd([]string{"-plan", strict, "-results", empty, "-json"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "no configuration meets the SLO") {
		t.Fatalf("analyze of an empty results file: err = %v", err)
	}
}
