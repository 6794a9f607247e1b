package main

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// tinyParams runs every workload through the same code as a full run
// with a budget small enough for the whole self-test to take seconds.
func tinyParams(t *testing.T, seed int64) Params {
	return Params{
		Seed: seed, Duration: 150 * time.Millisecond, SetupReps: 1, Elasticity: 1,
		Scale: 0.005, TrainSessions: 1, Lanes: 4, SetupCycles: 1,
		Devices: 16, Rounds: 3, Rate: 1500,
		SpanFile: filepath.Join(t.TempDir(), "spans.json"),
	}
}

type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkEmitted demands that a record carries exactly the declared
// metrics, each with its declared unit and a finite value.
func checkEmitted(t *testing.T, rec *Record, want []declared) {
	t.Helper()
	if len(rec.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, %d declared", rec.Workload, len(rec.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := rec.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: declared metric %s not emitted", rec.Workload, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s has unit %q, declared %q", rec.Workload, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", rec.Workload, d.Name, m.Value)
		}
	}
	line, err := rec.contractLine()
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
		t.Errorf("%s: contract line %s", rec.Workload, line)
	}
}

func TestBenchmarkFileAgreesWithCode(t *testing.T) {
	b := loadBenchmarkFile(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, benchmark default %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %s, benchmark %s", i, w.Name, workloads[i].name)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]declared{}, b.EndToEnd...), b.PerLayer...) {
		if !metricName.MatchString(d.Name) || len(d.Name) > 64 || seen[d.Name] {
			t.Errorf("bad or repeated metric name %q", d.Name)
		}
		seen[d.Name] = true
	}
	if runtime.GOARCH == "amd64" {
		for _, w := range workloads {
			if len(pinsFor(w.name, pinSeed)) == 0 {
				t.Errorf("pins.json pins no digest for %s", w.name)
			}
		}
	}
}

// TestEveryWorkloadEmitsDeclaredMetrics runs each workload untraced and
// traced: both must be correct, and emit exactly the end-to-end and
// per-layer metrics BENCHMARK.json declares. The traced sim runs also
// prove the wrappers change no result: they compare every unit the two
// phases share, bit for bit.
func TestEveryWorkloadEmitsDeclaredMetrics(t *testing.T) {
	b := loadBenchmarkFile(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			p := tinyParams(t, 7)
			p.Trace = traced
			rec, err := w.run(p)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d errors=%v",
					w.name, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Errors)
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
				if len(rec.Budget) == 0 {
					t.Errorf("%s: traced run printed no budget", w.name)
				}
				if _, err := os.Stat(p.SpanFile); err != nil {
					t.Errorf("%s: span file: %v", w.name, err)
				}
				if strings.HasPrefix(w.name, "sim-") && rec.Info["traced_units_compared"].Value < 1 {
					t.Errorf("%s: traced run compared no unit with the untraced one", w.name)
				}
			}
			checkEmitted(t, rec, want)
		}
	}
}

// TestCorruptedDigestFailsEveryOp pins one digest wrong: the run must
// come back incorrect with every op counted as failed.
func TestCorruptedDigestFailsEveryOp(t *testing.T) {
	p := tinyParams(t, 11)
	rec, err := runSimGrid(p)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct || len(rec.Digests) == 0 {
		t.Fatalf("baseline run: correct=%v digests=%d", rec.Correct, len(rec.Digests))
	}
	p.Pins = map[string]string{}
	for k, d := range rec.Digests {
		p.Pins[k] = d
	}
	p.Pins["c0/bursty-messaging/schedutil"] = "0000000000000000000000000000000000000000000000000000000000000000"
	rec, err = runSimGrid(p)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Correct || rec.Failed != rec.Attempted || rec.Info["fail_frac"].Value != 1 {
		t.Errorf("corrupted pin: correct=%v attempted=%d failed=%d fail_frac=%v",
			rec.Correct, rec.Attempted, rec.Failed, rec.Info["fail_frac"].Value)
	}
}

// burnSink makes the injected allocations escape to the heap.
var burnSink atomic.Pointer[[]byte]

// burn spins for d, allocating as it goes: a synthetic server-side
// regression in CPU and garbage.
func burn(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		b := make([]byte, 4096)
		burnSink.Store(&b)
	}
}

// TestHostSpeedIgnoresServerRegression injects a CPU and allocation
// regression into the fleet server's handlers around every other round
// barrier of a timed phase. The reference chunks at those barriers must
// take as long as at the clean ones: they run with nothing in flight, so
// a slower server cannot make the host look slower and cancel part of
// its own regression in the scaled metrics. Alternating barrier by
// barrier cancels the host's own drift.
func TestHostSpeedIgnoresServerRegression(t *testing.T) {
	for _, serve := range []bool{false, true} {
		p := tinyParams(t, 5)
		p.Rate = 1000
		traffic, err := recordTraffic(p)
		if err != nil {
			t.Fatal(err)
		}
		f, _, err := setupFleet(p, traffic, serve)
		if err != nil {
			t.Fatal(err)
		}
		// Merges split the rounds: after an odd number of them, the
		// round's pulls, the barrier and the next round's uploads are
		// regressed, so even-numbered barriers sit in regressed stretches.
		var merges, burns atomic.Int32
		intercept := interceptFunc(func(w http.ResponseWriter, r *http.Request) bool {
			if r.URL.Path == "/v1/merge" {
				merges.Add(1)
			} else if merges.Load()%2 == 1 {
				burns.Add(1)
				burn(time.Millisecond)
			}
			return false
		})
		f.intercept.Store(&intercept)
		res := f.timedPhase(1500 * time.Millisecond)
		f.close()
		if err := res.stats[0].err(); err != nil {
			t.Fatal(err)
		}
		rounds := len(res.elapsed)
		if rounds < 6 || burns.Load() == 0 {
			t.Fatalf("serve=%v: %d rounds, %d regressed requests", serve, rounds, burns.Load())
		}
		// Each regressed barrier against the clean one after it; the
		// median pair ignores a host hiccup that spans a few barriers.
		barrier := func(i int) []float64 { return res.ref[i*refsPerBarrier : (i+1)*refsPerBarrier] }
		var ratios []float64
		for i := 0; i+1 < rounds; i += 2 {
			ratios = append(ratios, hostSpeed(barrier(i+1))/hostSpeed(barrier(i)))
		}
		if r := percentile(sortedCopy(ratios), 0.5); r < 0.8 || r > 1.25 {
			t.Errorf("serve=%v: reference chunks ran %.2fx slower after regressed rounds", serve, r)
		}
	}
}

// TestReferenceChunkAllocatesNothing: a chunk that allocated could be
// made to assist the collector by a program that allocates more.
func TestReferenceChunkAllocatesNothing(t *testing.T) {
	h := newHostRef(1, 1)
	if n := testing.AllocsPerRun(100, func() { h.run() }); n != 0 {
		t.Errorf("reference chunk allocates %v times per run", n)
	}
}

// TestFailedUploadOnlyCounts answers one timed upload with 503. The
// benchmark's model takes an upload only once it is acked, so the final
// policy still matches: the run stays correct with one failed op.
func TestFailedUploadOnlyCounts(t *testing.T) {
	for _, w := range []workloadDef{{"fleet-ingest", runFleetIngest, 1}, {"fleet-serve", runFleetServe, 1}} {
		p := tinyParams(t, 9)
		var uploads atomic.Int32
		p.Intercept = func(w http.ResponseWriter, r *http.Request) bool {
			if r.URL.Path == "/v1/table" && uploads.Add(1) == 5 {
				http.Error(w, "injected failure", http.StatusServiceUnavailable)
				return true
			}
			return false
		}
		rec, err := w.run(p)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Correct || rec.Failed != 1 || rec.Attempted < 2 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d errors=%v", w.name, rec.Correct, rec.Attempted, rec.Failed, rec.Errors)
		}
	}
}

// TestPercentileTenSamplesBeyond checks the nearest-rank percentile and
// the rule that a tail percentile needs ten samples beyond it.
func TestPercentileTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(xs, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	for _, c := range []struct {
		q    float64
		n    int
		want bool
	}{{0.99, 1000, true}, {0.99, 999, false}, {0.999, 10000, true}, {0.999, 9999, false}, {0.5, 20, true}, {0.5, 19, false}} {
		if got := supported(c.q, c.n); got != c.want {
			t.Errorf("supported(%v, %d) = %v, want %v", c.q, c.n, got, c.want)
		}
	}
	if q := tailQuantile(1000); q != 0.99 {
		t.Errorf("tailQuantile(1000) = %v, want 0.99", q)
	}
	if q := tailQuantile(500); q != 0.9 {
		t.Errorf("tailQuantile(500) = %v, want 0.9", q)
	}
}

// TestBlockP99IgnoresOneSlowRound: one stalled round sets the pooled
// p99 but not the median of the two-round blocks' p99s, and a last
// round too short to support a p99 on its own is left out.
func TestBlockP99IgnoresOneSlowRound(t *testing.T) {
	var lat []float64
	var rounds []int32
	for r := int32(0); r < 11; r++ {
		for i := 0; i < 600; i++ {
			v := float64(i%100 + 1)
			if r == 3 {
				v += 1000
			}
			lat, rounds = append(lat, v), append(rounds, r)
		}
	}
	if p99, blocks := blockP99(lat, rounds); p99 != 99 || blocks != 5 {
		t.Errorf("blockP99 = %v over %d blocks, want 99 over 5", p99, blocks)
	}
	if p99, blocks := blockP99(lat[:600], rounds[:600]); blocks != 0 || p99 != percentile(sortedCopy(lat[:600]), 0.99) {
		t.Errorf("one round: blockP99 = %v over %d blocks, want the pooled p99", p99, blocks)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles([...], n=4) on the same values.
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{7, 1, 3, 9, 5, 11, 2, 8, 4, 10})
	// statistics.quantiles([7,1,3,9,5,11,2,8,4,10], n=4) == [2.75, 6.0, 9.25]
	if q1 != 2.75 || med != 6 || q3 != 9.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 6 9.25", q1, med, q3)
	}
}

func TestCommandLineRejectsBadUsage(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-trace", "2"}, {"-seconds", "0"}} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
