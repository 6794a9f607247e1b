// Command nextplan is the SLO-driven capacity-planning workbench: it
// sweeps a declarative plan file (an SLO plus a configuration grid)
// through the deterministic simulator and judges every cell against
// the SLO.
//
//	nextplan run -plan examples/plan/smoke.json -out results.jsonl
//	nextplan analyze -plan examples/plan/smoke.json -results results.jsonl
//
// The run stage appends one JSONL row per grid cell, with provenance
// (seed, config hash, git describe, host). Rows already on disk are
// skipped by config hash, so an interrupted sweep resumes where it
// stopped — and because the simulator is seed-deterministic, the same
// plan produces byte-identical result files on every run (CI cmp's
// two consecutive sweeps to prove it). The analyze stage reports
// pass/fail per cell, the cheapest SLO-passing configuration
// (energy-first, QoS tiebreak) and per-axis sensitivity, as a text
// table or machine-readable JSON (-json), and exits non-zero when no
// cell passes or the results file does not exist.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"nextdvfs/internal/plan"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = runCmd(os.Args[2:])
	case "analyze":
		err = analyzeCmd(os.Args[2:], os.Stdout)
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "nextplan: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nextplan:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  nextplan run     -plan FILE -out FILE [-parallel N] [-fresh]
  nextplan analyze -plan FILE -results FILE [-json]

Subcommands:
  run      sweep the plan's grid, appending one JSONL result row per
           cell; completed cells (matched by config hash) are skipped,
           so re-running resumes an interrupted sweep
  analyze  evaluate every cell's row against the plan's SLO and report
           pass/fail, the cheapest passing config and axis sensitivity;
           exits 1 when no cell passes

Run 'nextplan run -h' or 'nextplan analyze -h' for flag details.
`)
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("nextplan run", flag.ExitOnError)
	planPath := fs.String("plan", "", "plan file (required)")
	out := fs.String("out", "", "JSONL result file to append to (required)")
	parallel := fs.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	fresh := fs.Bool("fresh", false, "discard an existing result file instead of resuming into it")
	fs.Parse(args)
	if *planPath == "" || *out == "" {
		fs.Usage()
		return fmt.Errorf("-plan and -out are required")
	}
	p, err := plan.Load(*planPath)
	if err != nil {
		return err
	}
	rep, err := plan.Run(p, *out, plan.RunOptions{Parallel: *parallel, Fresh: *fresh})
	if err != nil {
		return err
	}
	fmt.Printf("plan %s: %d cells — ran %d, skipped %d (already done)", p.Name, rep.Cells, rep.Ran, rep.Skipped)
	if rep.Stale > 0 {
		fmt.Printf(", %d stale row(s) ignored", rep.Stale)
	}
	fmt.Println()
	return nil
}

// analyzeCmd prints the analysis to stdout. It fails when the results
// file does not exist or when no cell passes the SLO.
func analyzeCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("nextplan analyze", flag.ExitOnError)
	planPath := fs.String("plan", "", "plan file (required)")
	results := fs.String("results", "", "JSONL result file a run produced (required)")
	asJSON := fs.Bool("json", false, "emit the analysis as JSON instead of text")
	fs.Parse(args)
	if *planPath == "" || *results == "" {
		fs.Usage()
		return fmt.Errorf("-plan and -results are required")
	}
	p, err := plan.Load(*planPath)
	if err != nil {
		return err
	}
	rows, err := plan.ReadRows(*results)
	if err != nil {
		return err
	}
	a, err := plan.Analyze(p, rows)
	if err != nil {
		return err
	}
	if *asJSON {
		data, err := json.MarshalIndent(a, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(data))
	} else {
		a.WriteText(stdout)
	}
	if a.Cheapest == nil {
		return fmt.Errorf("no configuration meets the SLO")
	}
	return nil
}
