package plan

import (
	"strings"
	"testing"
)

func TestParseRejectsBadPlans(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"unknown field", `{"name":"x","slo":{},"grid":{},"typo":1}`, "unknown field"},
		{"trailing data", `{"name":"x"} {"again":true}`, "trailing data"},
		{"missing name", `{"grid":{}}`, `missing "name"`},
		{"unknown scheme", `{"name":"x","grid":{"schemes":["turbo"]}}`, "unknown scheme"},
		{"unknown platform", `{"name":"x","grid":{"platforms":["pixel"]}}`, "platform"},
		{"unknown scenario", `{"name":"x","grid":{"scenarios":["idle"]}}`, "scenario"},
		{"unknown learner", `{"name":"x","grid":{"learners":["dqn"]}}`, "unknown learner"},
		{"unknown explorer", `{"name":"x","explorer":"greedy"}`, "unknown explorer"},
		{"dup scheme", `{"name":"x","grid":{"schemes":["next","next"]}}`, "repeats"},
		{"negative scale", `{"name":"x","duration_scale":-1}`, "duration_scale"},
		{"negative seed", `{"name":"x","seed":-3}`, "negative seed"},
	}
	for _, c := range cases {
		_, err := Parse([]byte(c.json))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Parse err = %v, want substring %q", c.name, err, c.want)
		}
	}
	// Plans written for the retired fleet dimension must not silently
	// sweep without it.
	for _, old := range []string{
		`{"name":"x","grid":{"fleets":[64]}}`,
		`{"name":"x","grid":{"merge_every":[1]}}`,
		`{"name":"x","slo":{"min_checkins_per_sec":500}}`,
	} {
		if _, err := Parse([]byte(old)); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("fleet field %s: Parse err = %v, want unknown field", old, err)
		}
	}
}

// "" normalizes to the default learner — the duplicate check must
// catch normalized collisions, or resume accounting would see
// hash-colliding cells.
func TestParseRejectsNormalizedDuplicateLearners(t *testing.T) {
	_, err := Parse([]byte(`{"name":"x","grid":{"learners":["watkins",""]}}`))
	if err == nil || !strings.Contains(err.Error(), "repeats") {
		t.Fatalf("normalized duplicate learner err = %v, want repeats", err)
	}
}

func TestCellsCanonicalOrderAndLearnerCollapse(t *testing.T) {
	p := &Plan{
		Name: "order",
		Grid: Grid{
			Scenarios: []string{"doomscroll", "commute"},
			Platforms: []string{"note9"},
			Schemes:   []string{"schedutil", "next"},
			Learners:  []string{"watkins", "sarsa"},
		},
		TrainSessions: 1,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	cells, err := p.Cells()
	if err != nil {
		t.Fatal(err)
	}
	// Per scenario: schedutil collapses the learner axis (1) + next keeps
	// it (2) = 3 cells; × 2 scenarios = 6.
	if len(cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	if k := cellKey(cells[0]); k != "doomscroll/note9/schedutil/-" {
		t.Fatalf("first cell %q, want doomscroll/note9/schedutil/-", k)
	}
	if cells[3].Scenario != "commute" {
		t.Fatalf("cell 3 scenario %q, want commute (scenario-major order)", cells[3].Scenario)
	}
	hashes := make(map[string]bool)
	for _, c := range cells {
		if c.Scheme == "schedutil" && (c.Learner != "" || c.Explorer != "") {
			t.Fatalf("governor cell kept learner %q / explorer %q", c.Learner, c.Explorer)
		}
		if c.Scheme == "next" && c.Learner == "" {
			t.Fatal("agent cell lost its learner")
		}
		hashes[cellHash(c)] = true
	}
	if len(hashes) != len(cells) {
		t.Fatalf("%d distinct hashes for %d cells", len(hashes), len(cells))
	}
	// Scenario index moves the seed the way ScenarioGrid derives it.
	if want := cells[0].Seed + 100_003; cells[3].Seed != want {
		t.Fatalf("commute seed %d, want %d", cells[3].Seed, want)
	}
}

func TestSLOViolationsFixedOrder(t *testing.T) {
	s := SLO{MinActiveFPS: 30, MaxDropRatePct: 1, MaxBigTempC: 70, MaxDevTempC: 40, MaxEnergyJ: 40}
	r := Row{ActiveFPS: 28.42, DropRatePct: 2.5, PeakTempBigC: 75.1, PeakTempDevC: 41.26, EnergyJ: 52.06}
	got := s.Violations(r)
	want := []string{
		"active_fps 28.4 < floor 30",
		"drop_rate_pct 2.5 > ceiling 1",
		"big_temp_c 75.1 > ceiling 70",
		"dev_temp_c 41.3 > ceiling 40",
		"energy_j 52.1 > budget 40",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d violations %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("violation[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if v := (SLO{}).Violations(r); v != nil {
		t.Fatalf("empty SLO produced violations %v", v)
	}
}

// Analyze must behave sensibly at the edges the CLI can hit: no rows
// at all, an SLO nothing passes, and exact energy ties.
func TestAnalyzeEdges(t *testing.T) {
	p := &Plan{
		Name: "edge",
		Grid: Grid{
			Scenarios: []string{"doomscroll"},
			Platforms: []string{"note9"},
			Schemes:   []string{"schedutil", "powersave"},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	cells, err := p.Cells()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("no rows", func(t *testing.T) {
		a := mustAnalyze(t, p, nil)
		if a.Rows != 0 || a.Pass != 0 || a.Fail != 0 || a.Cheapest != nil {
			t.Fatalf("empty analysis off: %+v", a)
		}
		if len(a.Missing) != len(cells) || a.Missing[0] != cellKey(cells[0]) {
			t.Fatalf("missing = %v, want every cell key", a.Missing)
		}
	})

	rows := []Row{
		{Key: cellKey(cells[0]), Hash: cellHash(cells[0]), EnergyJ: 50, ActiveFPS: 55},
		{Key: cellKey(cells[1]), Hash: cellHash(cells[1]), EnergyJ: 20, ActiveFPS: 12},
	}

	t.Run("no passing cell", func(t *testing.T) {
		p.SLO = SLO{MinActiveFPS: 60}
		a := mustAnalyze(t, p, rows)
		if a.Pass != 0 || a.Fail != 2 || a.Cheapest != nil {
			t.Fatalf("want 0 pass / 2 fail / nil cheapest, got %d/%d/%v", a.Pass, a.Fail, a.Cheapest)
		}
		var b strings.Builder
		a.WriteText(&b)
		if !strings.Contains(b.String(), "cheapest passing: none") {
			t.Fatalf("report missing the none line:\n%s", b.String())
		}
	})

	t.Run("energy tie deterministic", func(t *testing.T) {
		p.SLO = SLO{}
		tied := []Row{
			{Key: cellKey(cells[0]), Hash: cellHash(cells[0]), EnergyJ: 30, ActiveFPS: 40},
			{Key: cellKey(cells[1]), Hash: cellHash(cells[1]), EnergyJ: 30, ActiveFPS: 40},
		}
		// Same energy, same QoS: the lexicographically smaller key wins,
		// regardless of row order.
		wantKey := min(tied[0].Key, tied[1].Key)
		for _, order := range [][]Row{tied, {tied[1], tied[0]}} {
			a := mustAnalyze(t, p, order)
			if a.Cheapest == nil || a.Cheapest.Row.Key != wantKey {
				t.Fatalf("tie broke to %+v, want key %q", a.Cheapest, wantKey)
			}
		}
		// A QoS edge breaks the tie before the key does.
		tied[0].ActiveFPS = 41
		a := mustAnalyze(t, p, tied)
		if a.Cheapest.Row.Key != tied[0].Key {
			t.Fatalf("QoS tiebreak picked %q, want %q", a.Cheapest.Row.Key, tied[0].Key)
		}
	})

	t.Run("stale and duplicate rows", func(t *testing.T) {
		p.SLO = SLO{}
		withJunk := append([]Row{
			{Key: "foreign", Hash: "deadbeef", EnergyJ: 1},
			rows[0], // duplicate of the row below
		}, rows...)
		a := mustAnalyze(t, p, withJunk)
		if a.Stale != 2 || a.Rows != 2 {
			t.Fatalf("stale=%d rows=%d, want 2 and 2", a.Stale, a.Rows)
		}
	})
}

func TestSensitivityCountsFlips(t *testing.T) {
	p := &Plan{
		Name: "sens",
		Grid: Grid{
			Scenarios: []string{"doomscroll"},
			Platforms: []string{"note9", "mid6"},
			Schemes:   []string{"schedutil", "powersave"},
		},
		SLO: SLO{MinActiveFPS: 30, MaxEnergyJ: 50},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	cells, err := p.Cells()
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, len(cells))
	for i, c := range cells {
		fps := 55.0
		if c.Scheme == "powersave" {
			fps = 12 // powersave always fails QoS
		}
		energy := 10.0
		if c.Platform == "mid6" {
			energy = 80 // mid6 always breaks the energy budget
		}
		rows[i] = Row{Key: cellKey(c), Hash: cellHash(c), ActiveFPS: fps, EnergyJ: energy}
	}
	a := mustAnalyze(t, p, rows)
	if a.Pass != 1 {
		t.Fatalf("pass = %d, want exactly schedutil on note9", a.Pass)
	}
	bySens := make(map[string]AxisSensitivity)
	for _, s := range a.Sensitivity {
		bySens[s.Axis] = s
	}
	// Single-valued axes must be absent.
	if _, ok := bySens["scenario"]; ok {
		t.Fatal("single-valued scenario axis reported")
	}
	// Scheme pairs: (schedutil,powersave) on each platform. On note9 the
	// pair flips (pass vs fail); on mid6 both fail.
	if s := bySens["scheme"]; s.Pairs != 2 || s.Flips != 1 {
		t.Fatalf("scheme sensitivity %+v, want 1/2", s)
	}
	if s := bySens["platform"]; s.Pairs != 2 || s.Flips != 1 {
		t.Fatalf("platform sensitivity %+v, want 1/2", s)
	}
}

func mustAnalyze(t *testing.T, p *Plan, rows []Row) *Analysis {
	t.Helper()
	a, err := Analyze(p, rows)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
