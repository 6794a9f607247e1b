package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"nextdvfs/internal/cpufeat"
)

// Metric is one measured number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Host records the machine and toolchain behind a result. Numbers from
// different hosts (the 1-core CI runner, a 2-core dev container) are
// never compared directly.
type Host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	AVX2       bool   `json:"avx2"`
	Go         string `json:"go"`
	OS         string `json:"goos"`
	Arch       string `json:"goarch"`
	Describe   string `json:"git_describe"`
}

func currentHost() Host {
	return Host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		AVX2:       cpufeat.HasAVX2,
		Go:         runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Describe:   gitDescribe(),
	}
}

// gitDescribe names the commit under test when the working directory is
// the root of a git checkout, and "unknown" otherwise (benchmark
// checkouts are plain file trees). It never searches parent directories.
func gitDescribe() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// Record is everything one workload run measured: the contract metrics
// plus the context a reader needs to trust them.
type Record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Host      Host              `json:"host"`
	Params    map[string]any    `json:"params"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Info holds measured context that is not a contract metric:
	// per-endpoint latencies, wire sizes, sample counts, ratios.
	Info map[string]Metric `json:"info,omitempty"`
	// Digests are sha256 sums of the run's outputs, keyed by unit of
	// work (sim cell or span, fleet policy).
	Digests map[string]string `json:"digests,omitempty"`
	Budget  []BudgetRow       `json:"budget,omitempty"`
	Errors  []string          `json:"errors,omitempty"`
}

func newRecord(workload string, p Params) *Record {
	return &Record{
		Workload: workload, Seed: p.Seed, Traced: p.Trace,
		Host: currentHost(), Params: p.describe(workload),
		Correct: true, Metrics: map[string]Metric{}, Info: map[string]Metric{},
		Digests: map[string]string{},
	}
}

func (r *Record) set(name string, v float64, unit string)  { r.Metrics[name] = Metric{v, unit} }
func (r *Record) info(name string, v float64, unit string) { r.Info[name] = Metric{v, unit} }

// fail marks the run incorrect. A correctness failure counts every op
// of the workload as failed.
func (r *Record) fail(format string, args ...any) {
	r.Correct = false
	r.note(format, args...)
}

// note records a failed request without marking the run incorrect.
func (r *Record) note(format string, args ...any) {
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// finish applies the failure rule once all checks have run.
func (r *Record) finish() {
	if !r.Correct {
		r.Failed = r.Attempted
	}
	if r.Attempted > 0 {
		r.info("fail_frac", float64(r.Failed)/float64(r.Attempted), "frac")
	}
}

// checkPin compares a digest against the pinned one for this run's
// seed and sizes, if one is pinned.
func (r *Record) checkPin(pins map[string]string, key, digest string) {
	r.Digests[key] = digest
	if want, ok := pins[key]; ok && want != digest {
		r.fail("%s: digest %s, pinned %s", key, digest[:12], want[:min(12, len(want))])
	}
}

// writeHuman prints "workload metric value unit" lines: contract
// metrics first, then informational ones.
func (r *Record) writeHuman(w io.Writer) {
	for _, m := range []map[string]Metric{r.Metrics, r.Info} {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, n, formatValue(m[n].Value), m[n].Unit)
		}
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "%s error: %s\n", r.Workload, e)
	}
	if len(r.Budget) > 0 {
		writeBudget(w, r.Workload, r.Budget)
	}
}

func formatValue(v float64) string { return fmt.Sprintf("%.6g", v) }

// contractLine is the one-line JSON result tools running the benchmark read:
// exactly these four keys.
func (r *Record) contractLine() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
}

// processStats snapshots the process-wide counters the per-op metrics
// are deltas of.
type processStats struct {
	at      time.Time
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pauseNs uint64
}

func readProcessStats() processStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return processStats{
		at: time.Now(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		gcs: ms.NumGC, pauseNs: ms.PauseTotalNs,
	}
}

// liveHeapMiB forces a collection and returns the live heap: what the
// workload still holds, not what the collector has yet to reclaim.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
