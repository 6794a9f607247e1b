package plan

import (
	"fmt"
	"io"
	"strings"

	"nextdvfs/internal/exp"
)

// Violations evaluates one row against the SLO and returns the broken
// dimensions in fixed declaration order (QoS, drops, temperatures,
// energy) — empty means the cell passes. The strings
// are part of the pinned report format.
func (s SLO) Violations(r Row) []string {
	var v []string
	if s.MinActiveFPS > 0 && r.ActiveFPS < s.MinActiveFPS {
		v = append(v, fmt.Sprintf("active_fps %.1f < floor %g", r.ActiveFPS, s.MinActiveFPS))
	}
	if s.MaxDropRatePct > 0 && r.DropRatePct > s.MaxDropRatePct {
		v = append(v, fmt.Sprintf("drop_rate_pct %.1f > ceiling %g", r.DropRatePct, s.MaxDropRatePct))
	}
	if s.MaxBigTempC > 0 && r.PeakTempBigC > s.MaxBigTempC {
		v = append(v, fmt.Sprintf("big_temp_c %.1f > ceiling %g", r.PeakTempBigC, s.MaxBigTempC))
	}
	if s.MaxDevTempC > 0 && r.PeakTempDevC > s.MaxDevTempC {
		v = append(v, fmt.Sprintf("dev_temp_c %.1f > ceiling %g", r.PeakTempDevC, s.MaxDevTempC))
	}
	if s.MaxEnergyJ > 0 && r.EnergyJ > s.MaxEnergyJ {
		v = append(v, fmt.Sprintf("energy_j %.1f > budget %g", r.EnergyJ, s.MaxEnergyJ))
	}
	return v
}

// CellOutcome is one analyzed cell: its row plus the SLO verdict.
type CellOutcome struct {
	Row        Row      `json:"row"`
	Pass       bool     `json:"pass"`
	Violations []string `json:"violations,omitempty"`
}

// AxisValue is one axis value's pass count across the analyzed cells.
type AxisValue struct {
	Value string `json:"value"`
	Pass  int    `json:"pass"`
	Cells int    `json:"cells"`
}

// AxisSensitivity reports how much one grid axis matters: of the
// neighbor pairs (cells identical on every other axis), how many flip
// between pass and fail when only this axis changes.
type AxisSensitivity struct {
	Axis string `json:"axis"`
	// Flips / Pairs count neighbor pairs with opposite verdicts.
	Flips int `json:"flips"`
	Pairs int `json:"pairs"`
	// Values lists per-value pass counts in grid order.
	Values []AxisValue `json:"values"`
}

// Analysis is the analyze stage's output: every cell judged against
// the SLO, the cheapest passing configuration, and per-axis
// sensitivity. Deterministic field order and sorting make the
// marshaled form byte-reproducible.
type Analysis struct {
	Plan string `json:"plan"`
	// Cells is the grid size; Rows how many grid cells had a result row.
	Cells int `json:"cells"`
	Rows  int `json:"rows"`
	// Stale counts file rows matching no grid cell (ignored).
	Stale int `json:"stale_rows,omitempty"`
	// Missing lists grid cells with no row, in canonical order — a
	// half-finished sweep announces itself here.
	Missing []string `json:"missing,omitempty"`
	Pass    int      `json:"pass"`
	Fail    int      `json:"fail"`
	// Cheapest is the passing cell with the lowest energy (ties broken
	// by higher QoS, then lexicographic key — fully deterministic); nil
	// when nothing passes.
	Cheapest    *CellOutcome      `json:"cheapest,omitempty"`
	Outcomes    []CellOutcome     `json:"outcomes"`
	Sensitivity []AxisSensitivity `json:"sensitivity,omitempty"`
}

// Analyze judges every result row against the plan's SLO. Rows are
// matched to grid cells by config hash, outcomes land in canonical
// cell order regardless of row order in the file (a resumed sweep may
// interleave), and duplicate rows for one cell keep the first.
func Analyze(p *Plan, rows []Row) (*Analysis, error) {
	cells, err := p.Cells()
	if err != nil {
		return nil, err
	}
	a := &Analysis{Plan: p.Name, Cells: len(cells)}

	byHash := make(map[string]Row, len(rows))
	inGrid := make(map[string]bool, len(cells))
	for _, c := range cells {
		inGrid[cellHash(c)] = true
	}
	for _, r := range rows {
		if !inGrid[r.Hash] {
			a.Stale++
			continue
		}
		if _, dup := byHash[r.Hash]; dup {
			a.Stale++
			continue
		}
		byHash[r.Hash] = r
	}

	var analyzed []exp.Cell
	for _, c := range cells {
		r, ok := byHash[cellHash(c)]
		if !ok {
			a.Missing = append(a.Missing, cellKey(c))
			continue
		}
		v := p.SLO.Violations(r)
		out := CellOutcome{Row: r, Pass: len(v) == 0, Violations: v}
		a.Outcomes = append(a.Outcomes, out)
		analyzed = append(analyzed, c)
		a.Rows++
		if out.Pass {
			a.Pass++
		} else {
			a.Fail++
		}
	}

	for i := range a.Outcomes {
		o := &a.Outcomes[i]
		if !o.Pass {
			continue
		}
		if a.Cheapest == nil || cheaper(o, a.Cheapest) {
			a.Cheapest = o
		}
	}
	a.Sensitivity = sensitivity(analyzed, a.Outcomes)
	return a, nil
}

// cheaper orders passing cells energy-first, QoS (active FPS) second,
// lexicographic key last, so the cheapest cell is unique even among
// exact measurement ties.
func cheaper(x, y *CellOutcome) bool {
	if x.Row.EnergyJ != y.Row.EnergyJ {
		return x.Row.EnergyJ < y.Row.EnergyJ
	}
	if x.Row.ActiveFPS != y.Row.ActiveFPS {
		return x.Row.ActiveFPS > y.Row.ActiveFPS
	}
	return x.Row.Key < y.Row.Key
}

// axes enumerate the sensitivity dimensions in report order, with a
// string projection of each cell's value.
var axes = []struct {
	name string
	of   func(exp.Cell) string
}{
	{"scenario", func(c exp.Cell) string { return c.Scenario }},
	{"platform", func(c exp.Cell) string { return c.Platform }},
	{"scheme", func(c exp.Cell) string { return c.Scheme }},
	{"learner", func(c exp.Cell) string {
		if c.Learner == "" {
			return "-"
		}
		return c.Learner
	}},
}

// sensitivity computes per-axis flip counts over the analyzed cells.
// Axes with fewer than two distinct values are omitted — a knob that
// never moves cannot flip anything.
func sensitivity(cells []exp.Cell, outcomes []CellOutcome) []AxisSensitivity {
	var out []AxisSensitivity
	for _, ax := range axes {
		// Per-value pass counts, values in first-appearance (grid) order.
		var order []string
		stats := make(map[string]*AxisValue)
		for i, c := range cells {
			v := ax.of(c)
			s, ok := stats[v]
			if !ok {
				s = &AxisValue{Value: v}
				stats[v] = s
				order = append(order, v)
			}
			s.Cells++
			if outcomes[i].Pass {
				s.Pass++
			}
		}
		if len(order) < 2 {
			continue
		}
		s := AxisSensitivity{Axis: ax.name}
		for _, v := range order {
			s.Values = append(s.Values, *stats[v])
		}
		// Neighbor pairs: identical on every other axis.
		for i := 0; i < len(cells); i++ {
			for j := i + 1; j < len(cells); j++ {
				if !neighbors(cells[i], cells[j], ax.name) {
					continue
				}
				s.Pairs++
				if outcomes[i].Pass != outcomes[j].Pass {
					s.Flips++
				}
			}
		}
		if s.Pairs == 0 {
			// No two analyzed cells differ only here (e.g. the learner
			// axis when governor cells project "-"): nothing to report.
			continue
		}
		out = append(out, s)
	}
	return out
}

// neighbors reports whether two cells differ only on the named axis.
func neighbors(a, b exp.Cell, axis string) bool {
	for _, ax := range axes {
		va, vb := ax.of(a), ax.of(b)
		if ax.name == axis {
			if va == vb {
				return false
			}
			continue
		}
		if va != vb {
			return false
		}
	}
	return true
}

// WriteText renders the analysis as the human-readable report
// cmd/nextplan analyze prints — the golden test pins this format, so
// change it deliberately.
func (a *Analysis) WriteText(w io.Writer) {
	fmt.Fprintf(w, "plan %s: %d cells, %d rows, %d pass / %d fail\n", a.Plan, a.Cells, a.Rows, a.Pass, a.Fail)
	if a.Stale > 0 {
		fmt.Fprintf(w, "ignored %d stale row(s) matching no grid cell\n", a.Stale)
	}
	if len(a.Missing) > 0 {
		fmt.Fprintf(w, "incomplete sweep: %d cell(s) have no result row: %s\n", len(a.Missing), strings.Join(a.Missing, ", "))
	}
	if len(a.Outcomes) > 0 {
		fmt.Fprintf(w, "\n%-44s %10s %7s %6s %8s %8s  %s\n",
			"cell", "energy(J)", "actFPS", "drop%", "bigPk°C", "devPk°C", "SLO")
		for _, o := range a.Outcomes {
			verdict := "pass"
			if !o.Pass {
				verdict = "FAIL " + strings.Join(o.Violations, "; ")
			}
			fmt.Fprintf(w, "%-44s %10.2f %7.1f %6.2f %8.1f %8.1f  %s\n",
				o.Row.Key, o.Row.EnergyJ, o.Row.ActiveFPS, o.Row.DropRatePct,
				o.Row.PeakTempBigC, o.Row.PeakTempDevC, verdict)
		}
	}
	fmt.Fprintln(w)
	if a.Cheapest != nil {
		fmt.Fprintf(w, "cheapest passing: %s (energy %.2f J, active FPS %.1f)\n",
			a.Cheapest.Row.Key, a.Cheapest.Row.EnergyJ, a.Cheapest.Row.ActiveFPS)
	} else {
		fmt.Fprintf(w, "cheapest passing: none — no configuration meets the SLO\n")
	}
	if len(a.Sensitivity) > 0 {
		fmt.Fprintf(w, "\nsensitivity (pass↔fail flips when only that axis changes):\n")
		for _, s := range a.Sensitivity {
			var vals []string
			for _, v := range s.Values {
				vals = append(vals, fmt.Sprintf("%s %d/%d", v.Value, v.Pass, v.Cells))
			}
			fmt.Fprintf(w, "  %-12s %d/%d pairs flip   %s\n", s.Axis, s.Flips, s.Pairs, strings.Join(vals, ", "))
		}
	}
}
