package plan

import (
	"errors"
	"fmt"
	"io/fs"
	"os"

	"nextdvfs/internal/batch"
	"nextdvfs/internal/exp"
	"nextdvfs/internal/sim"
)

// RunOptions tunes the sweep; the zero value resumes into resultsPath
// at GOMAXPROCS parallelism.
type RunOptions struct {
	// Parallel sizes the batch worker pool (0 = GOMAXPROCS, 1 =
	// sequential). Results are byte-identical at any worker count.
	Parallel int
	// Fresh truncates an existing result file instead of resuming into
	// it.
	Fresh bool
	// Provenance overrides the detected git/host stamp (tests pin it).
	Provenance *Provenance
}

// RunReport summarizes one sweep invocation.
type RunReport struct {
	// Cells is the grid size; Ran were executed this invocation,
	// Skipped were already on disk (matched by config hash), Stale rows
	// in the file match no grid cell (a stale or foreign result file).
	Cells   int
	Ran     int
	Skipped int
	Stale   int
}

// Run sweeps the plan's grid, appending one result row per cell to
// resultsPath in canonical cell order; each cell is one scalar
// simulation. A missing result file starts the sweep from nothing.
// Rows already in the file are skipped by config hash, so re-running a
// finished sweep is a no-op and re-running an interrupted one converges
// on the same bytes an uninterrupted sweep produces.
func Run(p *Plan, resultsPath string, opts RunOptions) (RunReport, error) {
	if err := p.Validate(); err != nil {
		return RunReport{}, err
	}
	if opts.Fresh {
		if err := os.Remove(resultsPath); err != nil && !os.IsNotExist(err) {
			return RunReport{}, fmt.Errorf("plan: %w", err)
		}
	}
	cells, err := p.Cells()
	if err != nil {
		return RunReport{}, err
	}
	report := RunReport{Cells: len(cells)}

	existing, err := ReadRows(resultsPath)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return report, err
	}
	inGrid := make(map[string]bool, len(cells))
	for _, c := range cells {
		inGrid[cellHash(c)] = true
	}
	done := make(map[string]bool, len(existing))
	for _, r := range existing {
		if !inGrid[r.Hash] {
			report.Stale++
			continue
		}
		done[r.Hash] = true
	}

	var pending []exp.Cell
	var jobs []batch.Job
	for _, c := range cells {
		if done[cellHash(c)] {
			report.Skipped++
			continue
		}
		job, err := c.Job()
		if err != nil {
			return report, fmt.Errorf("plan: cell %s: %w", cellKey(c), err)
		}
		pending = append(pending, c)
		jobs = append(jobs, job)
	}
	if len(pending) == 0 {
		return report, nil
	}

	results := batch.Run(jobs, batch.Options{Parallel: opts.Parallel})
	prov := detectProvenance()
	if opts.Provenance != nil {
		prov = *opts.Provenance
	}
	rows := make([]Row, len(pending))
	for i, r := range results {
		if r.Err != "" {
			return report, fmt.Errorf("plan: cell %s: %s", cellKey(pending[i]), r.Err)
		}
		rows[i] = makeRow(p.Name, pending[i], r.Result, prov)
	}
	if err := appendRows(resultsPath, rows); err != nil {
		return report, err
	}
	report.Ran = len(rows)
	return report, nil
}

// makeRow folds one cell's simulation result into its result row.
func makeRow(planName string, c exp.Cell, res sim.Result, prov Provenance) Row {
	return Row{
		Plan:         planName,
		Key:          cellKey(c),
		Hash:         cellHash(c),
		Scenario:     c.Scenario,
		Platform:     c.Platform,
		Scheme:       c.Scheme,
		Learner:      c.Learner,
		Seed:         c.Seed,
		SimS:         res.DurationS,
		EnergyJ:      res.EnergyJ,
		AvgPowerW:    res.AvgPowerW,
		PeakPowerW:   res.PeakPowerW,
		PeakTempBigC: res.PeakTempBigC,
		PeakTempDevC: res.PeakTempDevC,
		ActiveFPS:    res.ActiveAvgFPS,
		DropRatePct:  res.DropRate() * 100,
		Git:          prov.Git,
		Host:         prov.Host,
	}
}
