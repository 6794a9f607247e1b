package plan

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nextdvfs/internal/exp"
)

var update = flag.Bool("update", false, "rewrite golden files")

var testProv = &Provenance{Git: "test", Host: "test"}

func testPlan() *Plan {
	return &Plan{
		Name: "unit",
		Seed: 7,
		Grid: Grid{
			Scenarios: []string{"doomscroll"},
			Platforms: []string{"note9"},
			Schemes:   []string{"schedutil", "powersave"},
		},
		SLO:           SLO{MinActiveFPS: 20, MaxDropRatePct: 5},
		DurationScale: 0.01,
	}
}

func runInto(t *testing.T, path string, opts RunOptions) RunReport {
	t.Helper()
	opts.Provenance = testProv
	rep, err := Run(testPlan(), path, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The core contract: the same plan and seed produce byte-identical
// result files on every run, at any parallelism.
func TestRunByteDeterminism(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "a.jsonl")
	rep := runInto(t, base, RunOptions{Parallel: 1})
	if rep.Cells != 2 || rep.Ran != 2 || rep.Skipped != 0 {
		t.Fatalf("first run report %+v, want 2 cells all ran", rep)
	}
	want := readFile(t, base)

	variants := map[string]RunOptions{
		"serial again": {Parallel: 1},
		"parallel":     {Parallel: 4},
	}
	for name, opts := range variants {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "_")+".jsonl")
		runInto(t, path, opts)
		if got := readFile(t, path); !bytes.Equal(got, want) {
			t.Errorf("%s: result file differs from the serial baseline", name)
		}
	}
}

// Re-running a finished sweep is a no-op, and resuming a truncated one
// appends exactly the missing rows: truncating the tail converges back
// to the identical bytes, and removing the first row converges to the
// identical analysis.
func TestRunResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.jsonl")
	runInto(t, path, RunOptions{})
	want := readFile(t, path)

	rep := runInto(t, path, RunOptions{})
	if rep.Ran != 0 || rep.Skipped != 2 {
		t.Fatalf("re-run report %+v, want everything skipped", rep)
	}
	if got := readFile(t, path); !bytes.Equal(got, want) {
		t.Fatal("no-op re-run changed the file")
	}

	lines := bytes.Split(bytes.TrimSuffix(want, []byte("\n")), []byte("\n"))

	// Drop the last row: resume must append it back, byte-identical.
	truncated := append(bytes.Join(lines[:len(lines)-1], []byte("\n")), '\n')
	if err := os.WriteFile(path, truncated, 0o644); err != nil {
		t.Fatal(err)
	}
	rep = runInto(t, path, RunOptions{})
	if rep.Ran != 1 || rep.Skipped != 1 {
		t.Fatalf("resume report %+v, want 1 ran / 1 skipped", rep)
	}
	if got := readFile(t, path); !bytes.Equal(got, want) {
		t.Fatal("tail-truncated resume did not converge to the original bytes")
	}

	// Drop the first row: the file order differs after resume, but the
	// analysis must be identical (analyze orders by canonical cell).
	headless := append(bytes.Join(lines[1:], []byte("\n")), '\n')
	if err := os.WriteFile(path, headless, 0o644); err != nil {
		t.Fatal(err)
	}
	runInto(t, path, RunOptions{})
	rows, err := ReadRows(path)
	if err != nil {
		t.Fatal(err)
	}
	full := filepath.Join(dir, "full.jsonl")
	if err := os.WriteFile(full, want, 0o644); err != nil {
		t.Fatal(err)
	}
	fullRows, err := ReadRows(full)
	if err != nil {
		t.Fatal(err)
	}
	p := testPlan()
	if bytes.Equal(readFile(t, path), want) {
		t.Fatal("resume after dropping the first row kept canonical order; the reorder case is untested")
	}
	got, _ := json.MarshalIndent(mustAnalyze(t, p, rows), "", "  ")
	ref, _ := json.MarshalIndent(mustAnalyze(t, p, fullRows), "", "  ")
	if !bytes.Equal(got, ref) {
		t.Fatalf("analysis after first-row resume differs:\n%s\n--- want ---\n%s", got, ref)
	}

	// Fresh discards the file and re-runs everything.
	rep = runInto(t, path, RunOptions{Fresh: true})
	if rep.Ran != 2 || rep.Skipped != 0 {
		t.Fatalf("fresh report %+v, want everything ran", rep)
	}
	if gotB := readFile(t, path); !bytes.Equal(gotB, want) {
		t.Fatal("fresh re-run diverged")
	}
}

// Rows from a different plan (stale hashes) are left alone and
// reported, never silently mixed into the sweep.
func TestRunCountsStaleRows(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.jsonl")
	if err := appendRows(path, []Row{{Plan: "other", Key: "x", Hash: "feedface"}}); err != nil {
		t.Fatal(err)
	}
	rep := runInto(t, path, RunOptions{})
	if rep.Stale != 1 || rep.Ran != 2 {
		t.Fatalf("report %+v, want 1 stale / 2 ran", rep)
	}
}

func TestReadRowsRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{\"hash\":\"ok\"}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRows(bad); err == nil || !strings.Contains(err.Error(), ":2:") {
		t.Fatalf("corrupt line error = %v, want line 2 flagged", err)
	}
	nohash := filepath.Join(dir, "nohash.jsonl")
	if err := os.WriteFile(nohash, []byte("{\"plan\":\"x\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRows(nohash); err == nil || !strings.Contains(err.Error(), "config hash") {
		t.Fatalf("missing-hash error = %v", err)
	}
	// A missing file is an error for analyze; Run treats it as an empty sweep.
	absent := filepath.Join(dir, "absent.jsonl")
	if _, err := ReadRows(absent); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file error = %v, want fs.ErrNotExist", err)
	}
}

// The full-pipeline golden: sweep the unit plan, analyze, and pin the
// text report byte-for-byte. Regenerate with -update when the format
// changes deliberately.
func TestAnalyzeGolden(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.jsonl")
	runInto(t, path, RunOptions{})
	rows, err := ReadRows(path)
	if err != nil {
		t.Fatal(err)
	}
	p := testPlan()
	a := mustAnalyze(t, p, rows)

	var b bytes.Buffer
	a.WriteText(&b)
	golden := filepath.Join("testdata", "analysis.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("analysis text drifted from golden:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}

	// The machine form must single out a cheapest cell and at least one
	// failing cell with a named dimension — the acceptance criteria for
	// the workbench.
	if a.Cheapest == nil {
		t.Fatal("no cheapest passing cell in the unit plan")
	}
	if a.Fail == 0 {
		t.Fatal("unit plan has no failing cell to demonstrate")
	}
	var sawViolation bool
	for _, o := range a.Outcomes {
		if !o.Pass && len(o.Violations) > 0 {
			sawViolation = true
		}
	}
	if !sawViolation {
		t.Fatal("failing cells carry no violation strings")
	}
}

// A plan sweep is exp.ScenarioGrid run cell by cell: for the same seed,
// axes, scale and training sessions, its rows list the grid's cells in
// the grid's order with the grid's measurements.
func TestRunMatchesScenarioGrid(t *testing.T) {
	p := &Plan{
		Name: "grid",
		Seed: 42,
		Grid: Grid{
			Scenarios: []string{"doomscroll", "cold-start"},
			Platforms: []string{"note9", "mid6"},
			Schemes:   []string{"schedutil", "next"},
			Learners:  []string{"watkins", "sarsa"},
		},
		Explorer:      "softmax",
		DurationScale: 0.02,
		TrainSessions: 1,
	}
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	if _, err := Run(p, path, RunOptions{Provenance: testProv}); err != nil {
		t.Fatal(err)
	}
	rows, err := ReadRows(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exp.ScenarioGrid(exp.ScenarioOptions{
		Seed:          p.Seed,
		Scenarios:     p.Grid.Scenarios,
		Platforms:     p.Grid.Platforms,
		Schemes:       p.Grid.Schemes,
		Learners:      p.Grid.Learners,
		Explorer:      p.Explorer,
		DurationScale: p.DurationScale,
		TrainSessions: p.TrainSessions,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("%d plan rows, %d grid rows", len(rows), len(want))
	}
	for i, g := range want {
		r := rows[i]
		if r.Scenario != g.Scenario || r.Platform != g.Platform || r.Scheme != g.Scheme || r.Learner != g.Learner {
			t.Fatalf("row %d is %s, grid cell is %s/%s/%s/%s", i, r.Key, g.Scenario, g.Platform, g.Scheme, g.Learner)
		}
		res := g.Result
		if r.SimS != res.DurationS || r.EnergyJ != res.EnergyJ || r.AvgPowerW != res.AvgPowerW ||
			r.PeakPowerW != res.PeakPowerW || r.PeakTempBigC != res.PeakTempBigC ||
			r.PeakTempDevC != res.PeakTempDevC || r.ActiveFPS != res.ActiveAvgFPS ||
			r.DropRatePct != res.DropRate()*100 {
			t.Fatalf("row %s measurements differ from the grid's: %+v vs %+v", r.Key, r, res)
		}
	}
}
