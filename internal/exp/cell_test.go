package exp

import (
	"encoding/json"
	"testing"

	"nextdvfs/internal/batch"
)

// A Cell is the unit behind ScenarioGrid cells: run alone
// through batch.Run, it must reproduce the grid row byte-for-byte.
func TestCellMatchesScenarioGridRow(t *testing.T) {
	opts := ScenarioOptions{
		Seed:          42,
		Scenarios:     []string{"doomscroll"},
		Platforms:     []string{"note9"},
		Schemes:       []string{"schedutil", "next"},
		DurationScale: 0.02,
		TrainSessions: 2,
		Parallel:      1,
	}
	rows, err := ScenarioGrid(opts)
	if err != nil {
		t.Fatal(err)
	}
	base := opts.Seed // si=0, pi=0 → grid base seed is opts.Seed
	for _, row := range rows {
		cell := Cell{
			Scenario:      row.Scenario,
			Platform:      row.Platform,
			Scheme:        row.Scheme,
			Learner:       row.Learner,
			Seed:          base,
			TrainSessions: opts.TrainSessions,
			DurationScale: opts.DurationScale,
		}
		job, err := cell.Job()
		if err != nil {
			t.Fatal(err)
		}
		got := batch.Run([]batch.Job{job}, batch.Options{Parallel: 1})[0]
		if got.Err != "" {
			t.Fatal(got.Err)
		}
		a, _ := json.Marshal(got.Result)
		b, _ := json.Marshal(row.Result)
		if string(a) != string(b) {
			t.Fatalf("cell %s/%s result differs from grid row:\n%s\nvs\n%s", row.Scenario, row.Scheme, a, b)
		}
	}
}

// Lockstep cells land on the same bytes as scalar ones, in job order.
func TestCellLockstepByteIdentical(t *testing.T) {
	cells := []Cell{
		{Scenario: "doomscroll", Platform: "note9", Scheme: "schedutil", Seed: 7, DurationScale: 0.02},
		{Scenario: "doomscroll", Platform: "note9", Scheme: "powersave", Seed: 7, DurationScale: 0.02},
		{Scenario: "doomscroll", Platform: "note9", Scheme: "performance", Seed: 7, DurationScale: 0.02},
	}
	build := func(key string) []batch.Job {
		jobs := make([]batch.Job, len(cells))
		for i, c := range cells {
			j, err := c.Job()
			if err != nil {
				t.Fatal(err)
			}
			j.LockstepKey = key
			jobs[i] = j
		}
		return jobs
	}
	scalar := batch.Run(build(""), batch.Options{Parallel: 1})
	lock := batch.Run(build("span"), batch.Options{Parallel: 1})
	a, _ := json.Marshal(scalar)
	b, _ := json.Marshal(lock)
	if string(a) != string(b) {
		t.Fatalf("lockstep cells differ from scalar:\n%s\nvs\n%s", a, b)
	}
}

func TestCellValidateRejectsUnknownNames(t *testing.T) {
	bad := []Cell{
		{Scenario: "nope", Platform: "note9"},
		{Scenario: "doomscroll", Platform: "nope"},
		{Scenario: "doomscroll", Platform: "note9", Scheme: "nope"},
		{Scenario: "doomscroll", Platform: "note9", Scheme: "next", Learner: "nope"},
		{Scenario: "doomscroll", Platform: "note9", Scheme: "next", Explorer: "nope"},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("cell %d: Validate accepted %+v", i, c)
		}
	}
	ok := Cell{Scenario: "doomscroll", Platform: "note9", Scheme: "powersave", Learner: "nope"}
	if err := ok.Validate(); err != nil {
		t.Errorf("governor cell must ignore the learner field: %v", err)
	}
}
