// Command nextbench regenerates every figure of the paper's evaluation
// on a simulated handset from the platform registry (the paper's Galaxy
// Note 9 by default) and prints the rows/series the paper reports.
// Optionally writes the underlying traces as CSV. The experiment grids
// fan out across a worker pool; -parallel 1 and -parallel 8 print
// identical numbers. The fleet serving benchmark is nextfleetd -bench.
//
// Usage:
//
//	nextbench -fig all -seed 42 -out results/
//	nextbench -fig 7                       # just the Fig. 7 power matrix
//	nextbench -fig 7 -platform sd855       # same matrix on another SoC
//	nextbench -fig 78 -parallel 8          # fan the grid across 8 workers
//	nextbench -platforms                   # list the registry
//	nextbench -scenarios                   # scenario × platform × scheme grid
//	nextbench -scenarios -schemes schedutil,powersave,next -scale 0.1
//	nextbench -learners all                # convergence + energy/QoS by update rule
//	nextbench -learners watkins,doubleq -explorer softmax
//	nextbench -sweep 8                     # 8-seed lockstep sweep of mixed-day
//	nextbench -sweep 16 -scenario doomscroll -scale 0.1
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"nextdvfs"
	"nextdvfs/internal/exp"
	"nextdvfs/internal/platform"
	"nextdvfs/internal/sim"
	"nextdvfs/internal/trace"
)

func main() {
	fig := flag.String("fig", "all", "figure to reproduce: 1, 3, 4, 6, 7, 8, 78 (7+8 in one pass), refresh or all")
	seed := flag.Int64("seed", 42, "experiment seed")
	out := flag.String("out", "", "directory for CSV traces (optional)")
	plat := flag.String("platform", platform.DefaultName, "simulated device: "+strings.Join(platform.Names(), ", "))
	parallel := flag.Int("parallel", 0, "worker-pool size for experiment grids (0 = GOMAXPROCS, 1 = sequential)")
	listPlats := flag.Bool("platforms", false, "list registered platforms and exit")
	scenarios := flag.Bool("scenarios", false, "run the scenario × platform × scheme grid instead of a figure")
	schemes := flag.String("schemes", "schedutil,next", "for -scenarios: comma-separated schemes ("+strings.Join(nextdvfs.Schemes(), ", ")+")")
	scale := flag.Float64("scale", 0, "for -scenarios: shrink every scenario's duration by this factor (0 = full length)")
	learners := flag.String("learners", "", "learner comparison grid: comma-separated learners or \"all\" ("+strings.Join(nextdvfs.Learners(), ", ")+")")
	explorer := flag.String("explorer", "", "for -learners/-scenarios: exploration strategy agent cells train with ("+strings.Join(nextdvfs.Explorers(), ", ")+"; default egreedy)")
	sweep := flag.Int("sweep", 0, "run a lockstep seed sweep: N engine seeds of one scenario batched through one engine (uses -scenario, -scale, the first -schemes entry)")
	sweepScenario := flag.String("scenario", "mixed-day", "for -sweep: scenario preset to sweep")
	flag.Parse()

	if *listPlats {
		for _, p := range nextdvfs.PlatformInfos() {
			fmt.Printf("%-14s %3d Hz  %s\n", p.Name, p.RefreshHz, p.Description)
		}
		return
	}
	if _, err := platform.Get(*plat); err != nil {
		fmt.Fprintln(os.Stderr, "nextbench:", err)
		os.Exit(2)
	}
	if err := checkFig(*fig); err != nil {
		fmt.Fprintln(os.Stderr, "nextbench:", err)
		os.Exit(2)
	}

	if *sweep > 0 {
		runSweep(*sweepScenario, *plat, *seed, *sweep, *schemes, *scale, *parallel, learnerList(*learners), *explorer)
		return
	}

	if *scenarios {
		// -scenarios -learners X,Y sweeps the grid's learner dimension;
		// without -scenarios, -learners runs the learner comparison grid.
		runScenarios(*plat, *seed, *schemes, *scale, *parallel, learnerList(*learners), *explorer)
		return
	}

	if *learners != "" {
		runLearners(*plat, *seed, *learners, *explorer, *parallel)
		return
	}

	want := func(f string) bool { return *fig == "all" || *fig == f }

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "nextbench:", err)
			os.Exit(1)
		}
	}

	if want("1") {
		runFig1(*plat, *seed, *out)
	}
	if want("3") {
		runFig3(*plat, *seed, *out)
	}
	if want("4") {
		runFig4(*plat, *seed)
	}
	if want("6") {
		runFig6(*plat, *seed, *parallel)
	}
	if want("7") || want("8") || *fig == "78" {
		runFig78(*plat, *seed, *fig, *parallel)
	}
	if *fig == "refresh" || *fig == "all" {
		runHighRefresh(*plat, *seed, *parallel)
	}
}

// figures lists the values -fig accepts.
var figures = []string{"1", "3", "4", "6", "7", "8", "78", "refresh", "all"}

// checkFig refuses a -fig value that names no figure, so a typo fails
// instead of printing nothing.
func checkFig(fig string) error {
	if slices.Contains(figures, fig) {
		return nil
	}
	return fmt.Errorf("unknown figure %q (want one of: %s)", fig, strings.Join(figures, ", "))
}

// learnerList expands the -learners flag: "" → nil (each grid's
// default), "all" → the whole registry, else the comma list.
func learnerList(flag string) []string {
	if flag == "" {
		return nil
	}
	if flag == "all" {
		return nextdvfs.Learners()
	}
	return strings.Split(flag, ",")
}

func runLearners(plat string, seed int64, learners, explorer string, parallel int) {
	opts := exp.LearnerGridOptions{
		Seed:     seed,
		Platform: plat,
		Explorer: explorer,
		Parallel: parallel,
		Learners: learnerList(learners),
	}
	fmt.Printf("== Learner grid: convergence and energy/QoS by update rule on %s ==\n", plat)
	rows, err := exp.LearnerGrid(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nextbench:", err)
		os.Exit(1)
	}
	exp.WriteLearnerGrid(os.Stdout, rows)
	fmt.Println()
}

func runScenarios(plat string, seed int64, schemes string, scale float64, parallel int, learners []string, explorer string) {
	fmt.Printf("== Scenario grid: %d usage scenarios on %s ==\n", len(nextdvfs.Scenarios()), plat)
	rows, err := exp.ScenarioGrid(exp.ScenarioOptions{
		Seed:          seed,
		Platforms:     []string{plat},
		Schemes:       strings.Split(schemes, ","),
		Learners:      learners,
		Explorer:      explorer,
		Parallel:      parallel,
		DurationScale: scale,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "nextbench:", err)
		os.Exit(1)
	}
	exp.WriteScenarioGrid(os.Stdout, rows)
	fmt.Println()
}

func runSweep(scen, plat string, seed int64, runs int, schemes string, scale float64, parallel int, learners []string, explorer string) {
	scheme := strings.Split(schemes, ",")[0]
	lrn := ""
	if len(learners) > 0 {
		lrn = learners[0]
	}
	fmt.Printf("== Seed sweep: %d lockstep runs of %s (%s) on %s ==\n", runs, scen, scheme, plat)
	rows, err := exp.SeedSweep(exp.SeedSweepOptions{
		Scenario:      scen,
		Platform:      plat,
		Scheme:        scheme,
		Learner:       lrn,
		Explorer:      explorer,
		Seed:          seed,
		Runs:          runs,
		Parallel:      parallel,
		DurationScale: scale,
		Lockstep:      true,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "nextbench:", err)
		os.Exit(1)
	}
	exp.WriteSeedSweep(os.Stdout, rows)
	fmt.Println()
}

func runHighRefresh(plat string, seed int64, parallel int) {
	fmt.Println("== Extension: high-refresh panels (paper §I mentions 90/120 Hz) ==")
	rows := exp.HighRefreshOn(exp.HighRefreshOptions{Seed: seed, Platform: plat, Parallel: parallel})
	fmt.Printf("%8s %12s %10s %10s %10s %10s\n", "panel", "sched P(W)", "next P(W)", "saving%", "schedFPS", "nextFPS")
	for _, r := range rows {
		fmt.Printf("%7dHz %12.2f %10.2f %10.1f %10.1f %10.1f\n",
			r.RefreshHz, r.Sched.AvgPowerW, r.Next.AvgPowerW, r.SavingPct,
			r.Sched.ActiveAvgFPS, r.Next.ActiveAvgFPS)
	}
	fmt.Println()
}

var clusterNames = []string{"big", "LITTLE", "GPU"}

func runFig1(plat string, seed int64, out string) {
	fmt.Println("== Fig. 1: FPS and CPU frequencies, home→Facebook→Spotify on schedutil ==")
	r := exp.Fig1On(plat, seed)
	fmt.Printf("%8s %-10s %-8s %6s %10s %10s\n", "t(s)", "app", "inter", "FPS", "f_big(MHz)", "f_LIT(MHz)")
	for _, s := range r.Samples {
		fmt.Printf("%8.0f %-10s %-8s %6.0f %10.0f %10.0f\n",
			float64(s.TimeUS)/1e6, s.App, s.Interaction, s.FPS,
			float64(s.FreqKHz[0])/1000, float64(s.FreqKHz[1])/1000)
	}
	fmt.Printf("session: avg FPS %.1f, avg power %.2f W, displayed %d, dropped %d\n\n",
		r.Result.AvgFPS, r.Result.AvgPowerW, r.Result.FramesDisplayed, r.Result.FramesDropped)
	saveCSV(out, "fig1_schedutil_trace.csv", r.Samples)
}

func runFig3(plat string, seed int64, out string) {
	fmt.Println("== Fig. 3: power & big-CPU temperature, schedutil vs Next (same session) ==")
	r := exp.Fig3On(plat, seed)
	fmt.Printf("  avg power:  schedutil %.4f W | Next %.4f W  → saving %.2f%% (paper: 3.5154 → 2.0433 W, 41.88%%)\n",
		r.Sched.AvgPowerW, r.Next.AvgPowerW, r.PowerSavingPct)
	fmt.Printf("  avg T_big:  schedutil %.2f °C | Next %.2f °C → rise reduction %.2f%% (paper: 52.33 → 41.33 °C, 21.02%%)\n",
		r.Sched.AvgTempBigC, r.Next.AvgTempBigC, r.AvgTempRedPct)
	fmt.Printf("  peak T_big: schedutil %.2f °C | Next %.2f °C → rise reduction %.2f%%\n",
		r.Sched.PeakTempBigC, r.Next.PeakTempBigC, r.PeakTempRedPct)
	fmt.Printf("  QoS: active FPS schedutil %.1f | Next %.1f\n", r.Sched.ActiveAvgFPS, r.Next.ActiveAvgFPS)
	for _, t := range r.Train {
		fmt.Printf("  training %-10s sessions-converged=%v states=%d steps=%d (%.0f s on-device)\n",
			t.App, t.Converged, t.States, t.Steps, float64(t.TrainedUS)/1e6)
	}
	fmt.Println()
	saveCSV(out, "fig3_schedutil_trace.csv", r.Sched.Samples)
	saveCSV(out, "fig3_next_trace.csv", r.Next.Samples)
}

func runFig4(plat string, seed int64) {
	fmt.Println("== Fig. 4: PPDW vs FPS on Lineage 2 Revolution ==")
	r := exp.Fig4On(plat, seed)
	fmt.Printf("%8s %10s %10s %10s %s\n", "FPS", "PPDW", "P(W)", "T_big(°C)", "kind")
	for _, p := range r.Points {
		kind := "frontier"
		if p.Worst {
			kind = "worst (red in paper)"
		}
		fmt.Printf("%8.1f %10.4f %10.2f %10.1f %s\n", p.FPS, p.PPDW, p.PowerW, p.TempBigC, kind)
	}
	fmt.Printf("bounds: PPDW_worst %.4f < PPDW ≤ PPDW_best %.4f (Eq. 2)\n\n", r.Bounds.Worst, r.Bounds.Best)
}

func runFig6(plat string, seed int64, parallel int) {
	fmt.Println("== Fig. 6: training time vs FPS state granularity, online vs cloud ==")
	points := exp.Fig6(exp.Fig6Options{Seed: seed, Platform: plat, Parallel: parallel})
	fmt.Printf("%10s %12s %12s %10s\n", "FPS levels", "online (s)", "cloud (s)", "converged")
	for _, p := range points {
		fmt.Printf("%10d %12.0f %12.0f %10v\n", p.FPSLevels, p.OnlineS, p.CloudS, p.Converged)
	}
	fmt.Println("(paper: online 67→312 s, cloud 7→73 s as granularity grows)")
	fmt.Println()
}

func runFig78(plat string, seed int64, which string, parallel int) {
	fmt.Println("== Fig. 7 / Fig. 8: per-app power and peak temperatures by scheme ==")
	rows := exp.Evaluate(exp.EvalOptions{Seed: seed, Platform: plat, Parallel: parallel})
	if which == "all" || which == "7" || which == "78" {
		fmt.Println("-- Fig. 7: average power (W) --")
		fmt.Printf("%-20s %10s %10s %10s %12s %12s\n", "app", "schedutil", "Next", "IntQoS", "Next sav%", "IntQoS sav%")
		for _, r := range rows {
			iq, iqs := "-", "-"
			if r.IntQoS != nil {
				iq = fmt.Sprintf("%.2f", r.IntQoS.AvgPowerW)
				iqs = fmt.Sprintf("%.1f", r.IntQoSPowerSavingPct)
			}
			fmt.Printf("%-20s %10.2f %10.2f %10s %12.1f %12s\n",
				r.App, r.Sched.AvgPowerW, r.Next.AvgPowerW, iq, r.NextPowerSavingPct, iqs)
		}
		fmt.Println("(paper Next savings: facebook 37.05, lineage 50.68, pubg 40.95, spotify 32.98, chrome 32.11, youtube 40.6;")
		fmt.Println(" paper IntQoS savings: lineage 16.31, pubg 23.84)")
		fmt.Println()
	}
	if which == "all" || which == "8" || which == "78" {
		fmt.Println("-- Fig. 8: average peak temperature (°C) --")
		fmt.Printf("%-20s %9s %9s %9s %9s %9s %9s %11s %11s\n",
			"app", "schedB", "nextB", "iqB", "schedD", "nextD", "iqD", "nextB red%", "nextD red%")
		for _, r := range rows {
			iqB, iqD := "-", "-"
			if r.IntQoS != nil {
				iqB = fmt.Sprintf("%.1f", r.IntQoS.PeakTempBigC)
				iqD = fmt.Sprintf("%.1f", r.IntQoS.PeakTempDevC)
			}
			fmt.Printf("%-20s %9.1f %9.1f %9s %9.1f %9.1f %9s %11.1f %11.1f\n",
				r.App, r.Sched.PeakTempBigC, r.Next.PeakTempBigC, iqB,
				r.Sched.PeakTempDevC, r.Next.PeakTempDevC, iqD,
				r.NextBigTempRedPct, r.NextDevTempRedPct)
		}
		fmt.Println("(paper: Next up to 29.16% big / 21.21% device; IntQoS up to 22.80% big / 3.51% device)")
		fmt.Println()
	}
	// QoS transparency: the paper does not report post-Next FPS; we do.
	fmt.Println("-- QoS (active-phase average FPS) --")
	fmt.Printf("%-20s %10s %10s %10s\n", "app", "schedutil", "Next", "IntQoS")
	for _, r := range rows {
		iq := "-"
		if r.IntQoS != nil {
			iq = fmt.Sprintf("%.1f", r.IntQoS.ActiveAvgFPS)
		}
		fmt.Printf("%-20s %10.1f %10.1f %10s\n", r.App, r.Sched.ActiveAvgFPS, r.Next.ActiveAvgFPS, iq)
	}
	fmt.Println()
}

func saveCSV(dir, name string, samples []sim.Sample) {
	if dir == "" {
		return
	}
	path := filepath.Join(dir, name)
	if err := trace.SaveSamples(path, clusterNames, samples); err != nil {
		fmt.Fprintln(os.Stderr, "nextbench: saving", name+":", err)
		return
	}
	fmt.Println("   wrote", path)
}
