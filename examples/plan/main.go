// Plan: the capacity-planning workbench in one screen — declare an
// SLO and a configuration grid, sweep the grid through the simulator,
// and let the analysis name the cheapest configuration that meets the
// SLO. The same workflow runs from the command line via cmd/nextplan
// with the plan declared in a JSON file (see smoke.json next to this
// example).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"nextdvfs"
)

func main() {
	scale := flag.Float64("scale", 0.02, "scenario duration scale (1 = full length)")
	flag.Parse()

	p := &nextdvfs.Plan{
		Name: "example",
		Seed: 42,
		SLO: nextdvfs.PlanSLO{
			MinActiveFPS:   30,  // users must actually see their frames
			MaxDropRatePct: 5,   // ... and not as a stutter
			MaxEnergyJ:     180, // battery budget per (scaled) session
		},
		Grid: nextdvfs.PlanGrid{
			Scenarios: []string{"doomscroll"},
			Platforms: []string{"note9"},
			Schemes:   []string{"schedutil", "performance", "powersave"},
		},
		DurationScale: *scale,
	}

	dir, err := os.MkdirTemp("", "nextplan-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	results := filepath.Join(dir, "results.jsonl")

	rep, err := nextdvfs.RunPlan(p, results, nextdvfs.PlanRunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("swept %d grid cells\n\n", rep.Cells)

	a, err := nextdvfs.AnalyzePlan(p, results)
	if err != nil {
		log.Fatal(err)
	}
	a.WriteText(os.Stdout)

	fmt.Println("\ncapacity plan complete")
}
