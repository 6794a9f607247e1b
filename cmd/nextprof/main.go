// Command nextprof is the performance-work harness: it runs a scenario
// or figure workload under CPU and heap profiling and prints the top-N
// hotspot tables straight away (through `go tool pprof -top`, which
// ships with the toolchain), so "what do we optimize next?" is one
// command:
//
//	nextprof                              # mixed-day scenario, top 15
//	nextprof -scenario gaming-marathon -top 20
//	nextprof -fig 7 -platform sd855       # profile the Fig. 7 matrix
//	nextprof -sweep 8                     # profile the lockstep batched engine, k=8
//	nextprof -fleet 256                   # profile the fleet check-in cycle, 256 devices
//	nextprof -fleet 256 -fleet-wire json -fleet-delta=false
//	nextprof -benchtime 10s -cpuprofile cpu.prof -memprofile mem.prof
//
// The raw profiles are kept on disk (paths printed at the end) so a
// deeper dive with `go tool pprof` can pick up where the table stops.
// If the tables cannot be printed (no `go` on PATH), nextprof names
// both profiles and exits 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"nextdvfs/internal/exp"
	"nextdvfs/internal/platform"
	"nextdvfs/internal/scenario"
	"nextdvfs/internal/sim"
)

func main() {
	scen := flag.String("scenario", "mixed-day", "scenario preset to profile (see nextsim -scenarios for the list)")
	fig := flag.String("fig", "", "profile a figure workload instead: 1, 3, 4, 6, 7 or 8")
	plat := flag.String("platform", platform.DefaultName, "platform registry name")
	seed := flag.Int64("seed", 42, "simulation seed")
	scale := flag.Float64("scale", 0.01, "scenario duration scale factor (1.0 = full-length preset)")
	sweep := flag.Int("sweep", 0, "profile the batched lockstep path: step N lanes of the scenario through one sim.BatchEngine per iteration (0 = scalar engine)")
	fleet := flag.Int("fleet", 0, "profile the fleet check-in cycle instead: N devices re-upload a perturbed table, one merge round runs, one policy is pulled, per iteration")
	fleetWire := flag.String("fleet-wire", "binary", "fleet wire codec: binary or json")
	fleetDelta := flag.Bool("fleet-delta", true, "fleet uploads send X-Fleet-Base-Gen deltas (false = full tables)")
	benchtime := flag.Duration("benchtime", 2*time.Second, "minimum wall-clock time to keep the workload running")
	topN := flag.Int("top", 15, "table rows per profile")
	cpuOut := flag.String("cpuprofile", "", "CPU profile path (default: nextprof.cpu.pb.gz in the temp dir)")
	memOut := flag.String("memprofile", "", "heap profile path (default: nextprof.mem.pb.gz in the temp dir)")
	flag.Parse()

	if *cpuOut == "" {
		*cpuOut = filepath.Join(os.TempDir(), "nextprof.cpu.pb.gz")
	}
	if *memOut == "" {
		*memOut = filepath.Join(os.TempDir(), "nextprof.mem.pb.gz")
	}

	var run func()
	var desc string
	var err error
	if *fleet > 0 {
		run, desc, err = buildFleetWorkload(*fleet, *fleetWire, *fleetDelta, *seed)
	} else {
		run, desc, err = buildWorkload(*fig, *scen, *plat, *seed, *scale, *sweep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nextprof:", err)
		os.Exit(2)
	}

	fmt.Printf("profiling %s for at least %s ...\n", desc, *benchtime)
	iters, elapsed, err := writeProfiles(run, *benchtime, *cpuOut, *memOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nextprof:", err)
		os.Exit(1)
	}
	fmt.Printf("%d iterations in %s (%.1f ms/iteration)\n",
		iters, elapsed.Round(time.Millisecond), float64(elapsed.Milliseconds())/float64(iters))

	if err := printTables(os.Stdout, os.Stderr, *cpuOut, *memOut, *topN); err != nil {
		fmt.Fprintf(os.Stderr, "nextprof: %v (raw profiles kept: %s %s)\n", err, *cpuOut, *memOut)
		os.Exit(1)
	}
	fmt.Printf("\nraw profiles: %s %s\n", *cpuOut, *memOut)
	fmt.Println("deeper dive: go tool pprof <binary|-> <profile>")
}

// writeProfiles runs the workload under the CPU profiler until
// benchtime has passed, then writes the heap profile after a GC. It
// always runs at least one iteration, so -benchtime 0 still profiles a
// full workload pass.
func writeProfiles(run func(), benchtime time.Duration, cpuPath, memPath string) (iters int, elapsed time.Duration, err error) {
	cpuF, err := os.Create(cpuPath)
	if err != nil {
		return 0, 0, err
	}
	if err := pprof.StartCPUProfile(cpuF); err != nil {
		cpuF.Close()
		return 0, 0, err
	}
	start := time.Now()
	for {
		run()
		iters++
		if time.Since(start) >= benchtime {
			break
		}
	}
	elapsed = time.Since(start)
	pprof.StopCPUProfile()
	if err := cpuF.Close(); err != nil {
		return 0, 0, err
	}

	memF, err := os.Create(memPath)
	if err != nil {
		return 0, 0, err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(memF); err != nil {
		memF.Close()
		return 0, 0, err
	}
	return iters, elapsed, memF.Close()
}

// buildWorkload resolves the profiled workload: one closure per
// iteration, plus a human description.
func buildWorkload(fig, scen, plat string, seed int64, scale float64, sweep int) (func(), string, error) {
	if fig != "" {
		desc := fmt.Sprintf("fig %s on %s (seed %d)", fig, plat, seed)
		switch fig {
		case "1":
			return func() { exp.Fig1On(plat, seed) }, desc, nil
		case "3":
			return func() { exp.Fig3On(plat, seed) }, desc, nil
		case "4":
			return func() { exp.Fig4On(plat, seed) }, desc, nil
		case "6":
			return func() {
				exp.Fig6(exp.Fig6Options{Seed: seed, Platform: plat, MaxSessions: 4, SessionSecs: 60})
			}, desc, nil
		case "7", "8":
			return func() {
				exp.Evaluate(exp.EvalOptions{Seed: seed, Platform: plat, MaxSessions: 2, SessionSecs: 60})
			}, desc, nil
		default:
			return nil, "", fmt.Errorf("unknown figure %q (want 1, 3, 4, 6, 7 or 8)", fig)
		}
	}

	s, err := scenario.Get(scen)
	if err != nil {
		return nil, "", err
	}
	if scale != 1 {
		s = scenario.Scaled(s, scale)
	}
	p, err := platform.Get(plat)
	if err != nil {
		return nil, "", err
	}
	laneConfig := func(engineSeed int64) sim.Config {
		cfg, err := exp.ScenarioConfig(s, p, seed, engineSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nextprof:", err)
			os.Exit(1)
		}
		return cfg
	}
	if sweep > 0 {
		desc := fmt.Sprintf("scenario %s (scale %g) on %s, lockstep k=%d (struct seed %d)", scen, scale, plat, sweep, seed)
		return func() {
			cfgs := make([]sim.Config, sweep)
			for r := range cfgs {
				cfgs[r] = laneConfig(seed + int64(r))
			}
			be, err := sim.NewBatch(cfgs)
			if err != nil {
				fmt.Fprintln(os.Stderr, "nextprof:", err)
				os.Exit(1)
			}
			be.Run()
		}, desc, nil
	}
	desc := fmt.Sprintf("scenario %s (scale %g) on %s (seed %d)", scen, scale, plat, seed)
	return func() {
		eng, err := sim.New(laneConfig(seed))
		if err != nil {
			fmt.Fprintln(os.Stderr, "nextprof:", err)
			os.Exit(1)
		}
		eng.Run()
	}, desc, nil
}

// printTables prints the top-N table of the CPU profile and the
// alloc_space table of the heap profile by running `go tool pprof -top`
// on each, with the tool's stdout and stderr going to stdout and stderr.
func printTables(stdout, stderr io.Writer, cpuPath, memPath string, topN int) error {
	for _, p := range []struct{ path, sampleIndex string }{
		{cpuPath, "cpu"},
		{memPath, "alloc_space"},
	} {
		fmt.Fprintln(stdout)
		cmd := exec.Command("go", "tool", "pprof", "-top", fmt.Sprintf("-nodecount=%d", topN), "-sample_index="+p.sampleIndex, p.path)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("go tool pprof %s: %w", p.path, err)
		}
	}
	return nil
}
