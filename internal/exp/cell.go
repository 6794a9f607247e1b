package exp

import (
	"fmt"

	"nextdvfs/internal/batch"
	"nextdvfs/internal/learner"
	"nextdvfs/internal/platform"
	"nextdvfs/internal/scenario"
	"nextdvfs/internal/sim"
)

// Cell is one plan-runnable grid unit: evaluate one management scheme
// on one scenario × platform at one seed. It is the same work a
// ScenarioGrid cell does — agent-training schemes first train a fresh
// agent on TrainSessions differently-seeded sessions, then every
// scheme replays the evaluation timeline compiled at Seed — exposed as
// a standalone unit so sweep drivers (internal/plan) can assemble
// their own grids, deduplicate cells and route them through
// internal/batch with their own lockstep spans.
type Cell struct {
	// Scenario and Platform name registry presets (both required).
	Scenario string
	Platform string
	// Scheme names the management stack ("" = schedutil).
	Scheme string
	// Learner / Explorer configure agent-training schemes ("" = watkins
	// / egreedy); governor schemes ignore them.
	Learner  string
	Explorer string
	// Seed is the cell's base seed, with the ScenarioGrid derivation:
	// training sessions run at Seed+1…Seed+TrainSessions and the
	// evaluation timeline compiles at Seed+500. Cells sharing (Scenario,
	// Platform, Seed, DurationScale) replay byte-identical evaluation
	// timelines, so their results are directly comparable — and
	// lockstep-batchable.
	Seed int64
	// TrainSessions is how many sessions train an agent scheme's agent
	// (0 → 6); governor schemes ignore it.
	TrainSessions int
	// DurationScale shrinks the scenario (0 or 1 = full length).
	DurationScale float64
}

// Validate resolves every name against its registry.
func (c Cell) Validate() error {
	if _, err := scenario.Get(c.Scenario); err != nil {
		return err
	}
	if _, err := platform.Get(c.Platform); err != nil {
		return err
	}
	spec, err := GetScheme(c.Scheme)
	if err != nil {
		return err
	}
	if spec.TrainsAgent {
		if err := learner.CheckNames(c.Learner, c.Explorer); err != nil {
			return fmt.Errorf("exp: %w", err)
		}
	}
	return nil
}

// Job converts the cell into a batch.Job. lockstepKey, when non-empty,
// marks the job batchable: the caller guarantees that consecutive jobs
// carrying the same key share (Scenario, Platform, Seed, DurationScale)
// so their evaluation lanes compile identical timeline structure.
func (c Cell) Job(lockstepKey string) (batch.Job, error) {
	if err := c.Validate(); err != nil {
		return batch.Job{}, err
	}
	scn := scenario.MustGet(c.Scenario)
	scn = scenario.Scaled(scn, c.DurationScale)
	plat := platform.MustGet(c.Platform)
	spec, _ := GetScheme(c.Scheme)
	lrn := ""
	if spec.TrainsAgent {
		lrn = learner.Normalize(c.Learner)
	}
	trainSessions := c.TrainSessions
	if trainSessions <= 0 {
		trainSessions = 6
	}
	seed := c.Seed
	explorer := c.Explorer
	return batch.Job{
		App:         scn.Name,
		Scheme:      spec.Name,
		Platform:    plat.Name,
		Seed:        seed,
		LockstepKey: lockstepKey,
		Build: func() (sim.Config, error) {
			return laneConfig(scn, plat, spec, lrn, explorer, seed, seed+500, seed+500, trainSessions)
		},
	}, nil
}
