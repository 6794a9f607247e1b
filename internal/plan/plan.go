// Package plan is the SLO-driven capacity-planning workbench, a thin
// layer over exp's scenario grid: a declarative experiment config (an
// SLO plus a config grid), a run stage that sweeps the grid's exp.Cells
// through the batch orchestrator and appends one JSONL result row per
// cell with full provenance, and an analyze stage that re-reads the
// rows, evaluates every cell against the SLO and names the cheapest
// passing configuration. The sim is deterministic (same seed →
// byte-identical output), so the workbench inherits a hard contract:
// the same plan file and seed produce byte-identical result rows and
// analysis on every run, and a resumed sweep (rows already on disk are
// skipped by config hash) converges to the identical final report.
// cmd/nextplan is the CLI.
package plan

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"nextdvfs/internal/exp"
	"nextdvfs/internal/learner"
	"nextdvfs/internal/platform"
	"nextdvfs/internal/scenario"
)

// SLO declares the service-level objective every grid cell is judged
// against. A zero field disables that dimension — an empty SLO passes
// everything.
type SLO struct {
	// MinActiveFPS is the QoS floor: the session's active-average FPS
	// (frames users actually saw while the workload wanted them) must
	// reach it.
	MinActiveFPS float64 `json:"min_active_fps,omitempty"`
	// MaxDropRatePct is the frame-drop ceiling, in percent of all frames
	// the session dropped.
	MaxDropRatePct float64 `json:"max_drop_rate_pct,omitempty"`
	// MaxBigTempC / MaxDevTempC cap the session's peak big-cluster and
	// device-skin temperatures.
	MaxBigTempC float64 `json:"max_big_temp_c,omitempty"`
	MaxDevTempC float64 `json:"max_dev_temp_c,omitempty"`
	// MaxEnergyJ is the energy budget per session (at the plan's
	// duration scale).
	MaxEnergyJ float64 `json:"max_energy_j,omitempty"`
}

// Grid declares the configuration axes. Every empty axis defaults to
// the live registry (platforms, scenarios, schemes, learners), so an
// empty grid sweeps the whole system.
type Grid struct {
	Platforms []string `json:"platforms,omitempty"`
	Scenarios []string `json:"scenarios,omitempty"`
	Schemes   []string `json:"schemes,omitempty"`
	Learners  []string `json:"learners,omitempty"`
}

// Plan is one declarative experiment: what to sweep (Grid), what to
// demand (SLO), and the knobs that size each cell's simulation.
type Plan struct {
	// Name labels result rows and reports.
	Name string `json:"name"`
	// Seed is the base seed all cell seeds derive from (0 → 1).
	Seed int64 `json:"seed,omitempty"`
	SLO  SLO   `json:"slo"`
	Grid Grid  `json:"grid"`
	// DurationScale shrinks every scenario (0 or 1 = full length);
	// smoke plans use small factors to keep wall time bounded.
	DurationScale float64 `json:"duration_scale,omitempty"`
	// TrainSessions sizes agent-scheme training (0 → 6).
	TrainSessions int `json:"train_sessions,omitempty"`
	// Explorer names the exploration strategy agent cells train with
	// ("" = egreedy).
	Explorer string `json:"explorer,omitempty"`
}

// Parse decodes and validates a plan. Unknown fields are rejected — a
// typoed axis name must fail loudly, not silently sweep the default.
func Parse(data []byte) (*Plan, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("plan: trailing data after the plan object")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Load reads and parses a plan file.
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	p, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return p, nil
}

// Validate checks every axis value against its registry, rejects
// duplicate axis values (they would expand into hash-colliding cells
// and corrupt resume accounting) and sanity-checks the numeric knobs.
func (p *Plan) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("plan: missing \"name\"")
	}
	dupe := func(axis string, names []string) error {
		seen := make(map[string]bool, len(names))
		for _, n := range names {
			if seen[n] {
				return fmt.Errorf("plan: grid %s axis repeats %q", axis, n)
			}
			seen[n] = true
		}
		return nil
	}
	for _, n := range p.Grid.Platforms {
		if _, err := platform.Get(n); err != nil {
			return fmt.Errorf("plan: grid platform: %w", err)
		}
	}
	for _, n := range p.Grid.Scenarios {
		if _, err := scenario.Get(n); err != nil {
			return fmt.Errorf("plan: grid scenario: %w", err)
		}
	}
	schemes := make([]string, 0, len(p.Grid.Schemes))
	for _, n := range p.Grid.Schemes {
		spec, err := exp.GetScheme(n)
		if err != nil {
			return fmt.Errorf("plan: grid scheme: %w", err)
		}
		schemes = append(schemes, spec.Name)
	}
	learners := make([]string, 0, len(p.Grid.Learners))
	for _, n := range p.Grid.Learners {
		if err := learner.CheckNames(n, ""); err != nil {
			return fmt.Errorf("plan: grid learner: %w", err)
		}
		learners = append(learners, learner.Normalize(n))
	}
	if err := dupe("platform", p.Grid.Platforms); err != nil {
		return err
	}
	if err := dupe("scenario", p.Grid.Scenarios); err != nil {
		return err
	}
	if err := dupe("scheme", schemes); err != nil {
		return err
	}
	if err := dupe("learner", learners); err != nil {
		return err
	}
	if err := learner.CheckNames("", p.Explorer); err != nil {
		return fmt.Errorf("plan: %w", err)
	}
	if p.DurationScale < 0 {
		return fmt.Errorf("plan: negative duration_scale")
	}
	if p.TrainSessions < 0 {
		return fmt.Errorf("plan: negative train_sessions")
	}
	if p.Seed < 0 {
		return fmt.Errorf("plan: negative seed")
	}
	return nil
}

// cellKey is a cell's human-readable identity:
// scenario/platform/scheme/learner ("-" for governor cells).
func cellKey(c exp.Cell) string {
	lrn := c.Learner
	if lrn == "" {
		lrn = "-"
	}
	return fmt.Sprintf("%s/%s/%s/%s", c.Scenario, c.Platform, c.Scheme, lrn)
}

// cellHash is a cell's config hash: sha256 over its canonical JSON,
// which covers everything that determines its measurements. Two runs
// of the same plan derive identical hashes, which is what lets a
// resumed sweep skip rows already on disk.
func cellHash(c exp.Cell) string {
	data, err := json.Marshal(c)
	if err != nil { // exp.Cell is plain data; Marshal cannot fail
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Cells expands the grid through exp's scenario-grid expansion, with
// every empty axis filled from its live registry and seed 0 read as 1.
// The order (scenario-major, then platform, scheme, learner) is part of
// the determinism contract: the run stage appends rows in this order.
func (p *Plan) Cells() ([]exp.Cell, error) {
	o := exp.ScenarioOptions{
		Seed:          p.Seed,
		Scenarios:     p.Grid.Scenarios,
		Platforms:     p.Grid.Platforms,
		Schemes:       p.Grid.Schemes,
		Learners:      p.Grid.Learners,
		Explorer:      p.Explorer,
		DurationScale: p.DurationScale,
		TrainSessions: p.TrainSessions,
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Scenarios) == 0 {
		o.Scenarios = scenario.Names()
	}
	if len(o.Platforms) == 0 {
		o.Platforms = platform.Names()
	}
	if len(o.Schemes) == 0 {
		o.Schemes = exp.Schemes()
	}
	if len(o.Learners) == 0 {
		o.Learners = learner.Names()
	}
	cells, err := o.Cells()
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	return cells, nil
}
