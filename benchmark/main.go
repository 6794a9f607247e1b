// Command nextdvfs-bench is the repository benchmark: it drives the two
// hot paths users wait on — the simulator tick loop (researchers
// reproducing the paper's Q-learning DVFS grid) and the fleet check-in
// cycle (operators running the cloud trainer) — over four named
// workloads, checks their outputs, and reports end-to-end metrics or,
// with -trace 1, a per-layer time budget.
//
//	go run . -seed 42                         # all four workloads, one child process each
//	go run . -workload fleet-serve -trace 1   # one workload, traced
//
// The last line of stdout is a JSON object with the keys correct,
// attempted, failed and metrics. See README.md for the workloads, the
// metrics and how to read the budget.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeconds is the timed phase of one run; BENCHMARK.json's
// run_seconds must agree (the self-test checks).
const defaultSeconds = 20

// workloadDef is one named input set of the benchmark.
type workloadDef struct {
	name string
	run  func(p Params) (*Record, error)
	// elasticity is how much more strongly the workload's speed follows
	// the host's than the reference chunk's does (hostref.go): its
	// measured throughput went as host speed to this power. Fitted on
	// the defining host over three sets of ten runs whose host speeds
	// ranged up to 1.5x: sim-grid 1.22-1.24 (r² >= 0.96), sim-sweep
	// 1.04-1.05, fleet-ingest 1.22-1.25 and fleet-serve 1.09-1.34.
	elasticity float64
}

var workloads = []workloadDef{
	{"sim-grid", runSimGrid, 1.2},
	{"sim-sweep", runSimSweep, 1},
	{"fleet-ingest", runFleetIngest, 1.2},
	{"fleet-serve", runFleetServe, 1.2},
}

func lookup(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// Params sizes one workload run. The command line sets the seed, the
// timed duration and tracing; the rest is the benchmark's fixed
// definition (defaultParams), which the self-test shrinks.
type Params struct {
	Seed     int64
	Duration time.Duration
	Trace    bool
	SpanFile string
	// SetupReps is how many times set-up runs; setup_s is the median.
	SetupReps int
	// Elasticity is the workload's, for host-speed scaling.
	Elasticity float64

	// Scale multiplies every scenario's length (1 = full length).
	Scale         float64
	TrainSessions int
	Lanes         int
	// SetupCycles is how many cycles of engines one sim set-up builds.
	SetupCycles int

	// Devices is the fleet's size, and Rounds how many rounds of
	// fleetsim's check-in protocol are recorded for replay.
	Devices int
	Rounds  int
	// Rate is fleet-serve's fixed offered load in requests per second.
	Rate float64

	// Pins maps a unit of work to its expected output digest.
	Pins map[string]string
	// Intercept, when set, sees every request of the fleet workloads'
	// timed phases before the server does; it returns true when it has
	// answered the request itself. Only the self-test sets it, to inject
	// failures and slowdowns.
	Intercept interceptFunc
}

type interceptFunc = func(w http.ResponseWriter, r *http.Request) bool

func defaultParams(seed int64, seconds float64) Params {
	return Params{
		Seed: seed, Duration: time.Duration(seconds * float64(time.Second)), SetupReps: 9,
		Scale: 0.1, TrainSessions: 6, Lanes: 8, SetupCycles: 24,
		Devices: 256, Rounds: 3, Rate: 640,
	}
}

func (p Params) describe(workload string) map[string]any {
	d := map[string]any{"seconds": p.Duration.Seconds(), "setup_reps": p.SetupReps, "elasticity": p.Elasticity}
	if strings.HasPrefix(workload, "sim-") {
		d["scale"], d["train_sessions"], d["lanes"], d["platform"] = p.Scale, p.TrainSessions, p.Lanes, simPlatform
		d["setup_cycles"] = p.SetupCycles
	} else {
		d["devices"], d["recorded_rounds"], d["connections"] = p.Devices, p.Rounds, fleetConns
		d["app"], d["platform"] = fleetApp, fleetPlatform
		if workload == "fleet-serve" {
			d["offered_per_s"] = p.Rate
		}
	}
	return d
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nextdvfs-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: sim-grid, sim-sweep, fleet-ingest or fleet-serve (empty: all four, each in its own child process)")
	seed := fs.Int64("seed", 42, "seed every input is generated from")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the timed phase of each run")
	trace := fs.Int("trace", 0, "1: traced run; reports the per-layer budget instead of end-to-end metrics")
	spans := fs.String("spans", "", "traced runs: Chrome trace-event file for sampled spans (default .bench_build/spans-<workload>.json)")
	runs := fs.Int("runs", 1, "without -workload: runs per workload, with seeds seed, seed+1, ...")
	jsonOut := fs.String("json", "", "write the full records (host, parameters, metrics, budget) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "nextdvfs-bench: -trace takes 0 or 1")
		return 2
	}
	if *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(stderr, "nextdvfs-bench: -seconds and -runs must be positive")
		return 2
	}
	if *name == "" {
		return runAll(*seed, *seconds, *trace, *runs, *jsonOut, stdout, stderr)
	}
	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(stderr, "nextdvfs-bench: unknown workload %q\n", *name)
		return 2
	}
	p := defaultParams(*seed, *seconds)
	p.Elasticity = w.elasticity
	p.Trace = *trace == 1
	p.SpanFile = *spans
	if p.Trace && p.SpanFile == "" {
		p.SpanFile = filepath.Join(".bench_build", "spans-"+w.name+".json")
	}
	p.Pins = pinsFor(w.name, *seed)
	rec, err := w.run(p)
	if err != nil {
		fmt.Fprintf(stderr, "nextdvfs-bench: %s: %v\n", w.name, err)
		return 1
	}
	rec.writeHuman(stdout)
	full, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(stderr, "nextdvfs-bench:", err)
		return 1
	}
	if *jsonOut != "" {
		if err := os.WriteFile(*jsonOut, full, 0o644); err != nil {
			fmt.Fprintln(stderr, "nextdvfs-bench:", err)
			return 1
		}
	}
	line, err := rec.contractLine()
	if err != nil {
		fmt.Fprintln(stderr, "nextdvfs-bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "record %s\n%s\n", full, line)
	if !rec.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process of this binary,
// so heap and GC state never carry over from one workload to the next,
// and summarizes the runs.
func runAll(seed int64, seconds float64, trace, runs int, jsonOut string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "nextdvfs-bench:", err)
		return 1
	}
	status := 0
	var records []*Record
	// Round-robin over workloads, so a slow stretch of a shared host is
	// spread across them instead of landing on one.
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed+int64(r), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
			rec, err := runChild(self, args, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "nextdvfs-bench: %s seed %d: %v\n", w.name, seed+int64(r), err)
				status = 1
			}
			if rec != nil {
				records = append(records, rec)
				if !rec.Correct {
					status = 1
				}
			}
		}
	}
	summary := summarize(records)
	if runs > 1 {
		writeSummary(stdout, summary)
	}
	if jsonOut != "" {
		params := map[string]map[string]any{}
		for _, r := range records {
			params[r.Workload] = r.Params
		}
		out := map[string]any{"host": currentHost(), "first_seed": seed, "runs": runs, "params": params, "summary": summary}
		data, err := json.MarshalIndent(out, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonOut, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "nextdvfs-bench:", err)
			return 1
		}
	}
	return status
}

// runChild runs one workload as a child process, echoes its
// human-readable lines and returns its record.
func runChild(self string, args []string, stdout, stderr io.Writer) (*Record, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	runErr := cmd.Run()
	var rec *Record
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Text()
		if payload, ok := strings.CutPrefix(line, "record "); ok {
			rec = &Record{}
			if err := json.Unmarshal([]byte(payload), rec); err != nil {
				return nil, fmt.Errorf("bad record line: %w", err)
			}
			continue
		}
		if !strings.HasPrefix(line, "{") {
			fmt.Fprintln(stdout, line)
		}
	}
	if err := sc.Err(); err != nil {
		return rec, err
	}
	if rec == nil {
		return nil, fmt.Errorf("no result (%v)", runErr)
	}
	return rec, runErr
}

// SummaryRow is one metric of one workload over several runs.
type SummaryRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Q1       float64   `json:"q1"`
	Median   float64   `json:"median"`
	Q3       float64   `json:"q3"`
	// Spread is (q3 - q1) / median, the repeatability the metric's
	// regression bound must exceed.
	Spread float64 `json:"spread"`
}

func summarize(records []*Record) []SummaryRow {
	type key struct{ w, m string }
	vals := map[key][]float64{}
	units := map[key]string{}
	var order []key
	for _, r := range records {
		names := make([]string, 0, len(r.Metrics))
		for n := range r.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			k := key{r.Workload, n}
			if _, seen := vals[k]; !seen {
				order = append(order, k)
			}
			vals[k] = append(vals[k], r.Metrics[n].Value)
			units[k] = r.Metrics[n].Unit
		}
	}
	rows := make([]SummaryRow, 0, len(order))
	for _, k := range order {
		q1, med, q3 := quartiles(vals[k])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		rows = append(rows, SummaryRow{Workload: k.w, Metric: k.m, Unit: units[k], Values: vals[k], Q1: q1, Median: med, Q3: q3, Spread: spread})
	}
	return rows
}

func writeSummary(w io.Writer, rows []SummaryRow) {
	fmt.Fprintf(w, "%-13s %-28s %12s %12s %12s %8s %s\n", "workload", "metric", "q1", "median", "q3", "spread", "unit")
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %-28s %12s %12s %12s %7.1f%% %s\n",
			r.Workload, r.Metric, formatValue(r.Q1), formatValue(r.Median), formatValue(r.Q3), 100*r.Spread, r.Unit)
	}
}
