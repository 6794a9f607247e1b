package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"nextdvfs/internal/batch"
)

// The sweep wiring pin: Lockstep on and off must produce byte-identical
// rows — the BatchEngine is an execution strategy, never a result
// change — for both a bare governor scheme and an agent-training one.
func TestSeedSweepLockstepByteIdentical(t *testing.T) {
	for _, scheme := range []string{"schedutil", "next"} {
		t.Run(scheme, func(t *testing.T) {
			run := func(lockstep bool) []SeedSweepRow {
				rows, err := SeedSweep(SeedSweepOptions{
					Scenario:      "doomscroll",
					Scheme:        scheme,
					Seed:          42,
					Runs:          4,
					Parallel:      2,
					DurationScale: 0.02,
					TrainSessions: 1,
					Lockstep:      lockstep,
				})
				if err != nil {
					t.Fatal(err)
				}
				return rows
			}
			scalar, lockstep := run(false), run(true)
			a, _ := json.Marshal(scalar)
			b, _ := json.Marshal(lockstep)
			if !bytes.Equal(a, b) {
				t.Fatal("lockstep sweep rows diverged from scalar rows")
			}
			for i, r := range lockstep {
				if r.Seed != 42+int64(i) {
					t.Fatalf("row %d seed %d, want %d", i, r.Seed, 42+int64(i))
				}
				if r.Result.DurationS <= 0 {
					t.Fatalf("row %d empty result", i)
				}
			}
			// The sweep must actually vary: distinct engine seeds over the
			// same structure should not collapse to one trajectory.
			if lockstep[0].Result.EnergyJ == lockstep[1].Result.EnergyJ {
				t.Fatal("seeds 42 and 43 produced identical energy; engine seed not applied")
			}
		})
	}
}

func TestSeedSweepRejectsUnknownNames(t *testing.T) {
	if _, err := SeedSweep(SeedSweepOptions{Scenario: "nope"}); err == nil {
		t.Fatal("unknown scenario should error")
	}
	if _, err := SeedSweep(SeedSweepOptions{Platform: "nope"}); err == nil {
		t.Fatal("unknown platform should error")
	}
	if _, err := SeedSweep(SeedSweepOptions{Scheme: "nope"}); err == nil {
		t.Fatal("unknown scheme should error")
	}
	if _, err := SeedSweep(SeedSweepOptions{Scheme: "next", Learner: "nope"}); err == nil {
		t.Fatal("unknown learner should error")
	}
}

// The grid wiring pin: ScenarioGrid runs every cell scalar, and its
// rows stay identical to the same cells run with each (scenario,
// platform) pair's schemes as one lockstep span.
func TestScenarioGridLockstepByteIdentical(t *testing.T) {
	opts := ScenarioOptions{
		Seed:          42,
		Scenarios:     []string{"doomscroll", "cold-start"},
		Parallel:      4,
		DurationScale: 0.02,
		TrainSessions: 1,
	}
	rows, err := ScenarioGrid(opts)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []batch.Job
	for si, sn := range opts.Scenarios {
		for _, sch := range []string{"schedutil", "next"} {
			c := Cell{Scenario: sn, Platform: "note9", Scheme: sch, Seed: opts.Seed + int64(si)*100_003,
				TrainSessions: opts.TrainSessions, DurationScale: opts.DurationScale}
			job, err := c.Job()
			if err != nil {
				t.Fatal(err)
			}
			job.LockstepKey = fmt.Sprintf("grid|%d", si)
			jobs = append(jobs, job)
		}
	}
	lock := batch.Run(jobs, batch.Options{Parallel: 4})
	if len(lock) != len(rows) {
		t.Fatalf("%d grid rows, %d lockstep cells", len(rows), len(lock))
	}
	for i, r := range lock {
		if r.Err != "" {
			t.Fatal(r.Err)
		}
		a, _ := json.Marshal(rows[i].Result)
		b, _ := json.Marshal(r.Result)
		if !bytes.Equal(a, b) {
			t.Fatalf("grid row %s/%s diverged from its lockstep cell", rows[i].Scenario, rows[i].Scheme)
		}
	}
}
