package exp

import (
	"fmt"

	"nextdvfs/internal/batch"
	"nextdvfs/internal/learner"
	"nextdvfs/internal/platform"
	"nextdvfs/internal/scenario"
	"nextdvfs/internal/sim"
)

// Cell is one grid unit: evaluate one management scheme on one
// scenario × platform at one seed. Agent-training schemes first train a
// fresh agent on TrainSessions differently-seeded sessions, then every
// scheme replays the evaluation timeline compiled at Seed. ScenarioGrid
// runs the cells ScenarioOptions.Cells lists; internal/plan runs the
// same cells and keys each result row by the cell's JSON form (these
// tags), so an interrupted sweep can resume.
type Cell struct {
	// Scenario and Platform name registry presets (both required).
	Scenario string `json:"scenario"`
	Platform string `json:"platform"`
	// Scheme names the management stack ("" = schedutil).
	Scheme string `json:"scheme"`
	// Learner / Explorer configure agent-training schemes ("" = watkins
	// / egreedy); governor schemes ignore them.
	Learner  string `json:"learner,omitempty"`
	Explorer string `json:"explorer,omitempty"`
	// Seed is the cell's base seed, with the ScenarioGrid derivation:
	// training sessions run at Seed+1…Seed+TrainSessions and the
	// evaluation timeline compiles at Seed+500. Cells sharing (Scenario,
	// Platform, Seed, DurationScale) replay byte-identical evaluation
	// timelines, so their results are directly comparable — and
	// lockstep-batchable.
	Seed int64 `json:"seed"`
	// TrainSessions is how many sessions train an agent scheme's agent
	// (0 → 6); governor schemes ignore it.
	TrainSessions int `json:"train_sessions,omitempty"`
	// DurationScale shrinks the scenario (0 or 1 = full length).
	DurationScale float64 `json:"duration_scale,omitempty"`
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

// Job converts the cell into a scalar batch.Job. A caller may set the
// job's LockstepKey when consecutive jobs share (Scenario, Platform,
// Seed, DurationScale), so their evaluation lanes compile identical
// timeline structure.
func (c Cell) Job() (batch.Job, error) {
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
		App:      scn.Name,
		Scheme:   spec.Name,
		Platform: plat.Name,
		Seed:     seed,
		Build: func() (sim.Config, error) {
			return laneConfig(scn, plat, spec, lrn, explorer, seed, seed+500, seed+500, trainSessions)
		},
	}, nil
}
