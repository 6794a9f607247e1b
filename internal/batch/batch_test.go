package batch

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sync/atomic"
	"testing"

	"nextdvfs/internal/platform"
	"nextdvfs/internal/session"
	"nextdvfs/internal/sim"
	"nextdvfs/internal/workload"
)

// gridJobs builds a small app × scheme × seed × platform grid. Every
// job owns its timeline and config; schemes are schedutil vs
// powersave-pinned governor so no controller state is shared.
func gridJobs() []Job {
	var jobs []Job
	for _, app := range []string{workload.NameSpotify, workload.NamePubG} {
		for _, seed := range []int64{1, 2} {
			for _, platName := range []string{"note9", "sd855"} {
				app, seed, platName := app, seed, platName
				jobs = append(jobs, Job{
					App: app, Scheme: "schedutil", Platform: platName, Seed: seed,
					Build: func() (sim.Config, error) {
						p := platform.MustGet(platName)
						rng := rand.New(rand.NewSource(seed))
						tl := &session.Timeline{Scripts: []session.Script{
							session.ForApp(workload.ByName(app), session.Seconds(20), rng),
						}}
						return p.Config(tl, seed), nil
					},
				})
			}
		}
	}
	return jobs
}

// The tentpole invariant: the same grid yields byte-identical results
// at -parallel 1 and -parallel 8.
func TestRunDeterministicAcrossParallelism(t *testing.T) {
	serial := Run(gridJobs(), Options{Parallel: 1})
	parallel := Run(gridJobs(), Options{Parallel: 8})

	a, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("parallel grid diverged from serial grid")
	}
}

func TestRunPreservesJobOrderAndLabels(t *testing.T) {
	jobs := gridJobs()
	results := Run(jobs, Options{Parallel: 4})
	if len(results) != len(jobs) {
		t.Fatalf("results = %d, want %d", len(results), len(jobs))
	}
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("result %d has index %d", i, r.Index)
		}
		if r.App != jobs[i].App || r.Platform != jobs[i].Platform || r.Seed != jobs[i].Seed {
			t.Fatalf("result %d labels %+v do not match job %+v", i, r, jobs[i])
		}
		if r.Err != "" {
			t.Fatalf("job %d failed: %s", i, r.Err)
		}
		if r.Result.DurationS != 20 {
			t.Fatalf("job %d duration %g", i, r.Result.DurationS)
		}
	}
}

func TestRunReportsBuildErrorsWithoutAborting(t *testing.T) {
	jobs := gridJobs()[:2]
	jobs[0].Build = func() (sim.Config, error) { return sim.Config{}, nil } // invalid: fails sim.New
	results := Run(jobs, Options{})
	if results[0].Err == "" {
		t.Fatal("invalid config must surface an error")
	}
	if results[1].Err != "" {
		t.Fatalf("healthy job poisoned: %s", results[1].Err)
	}
}

func TestMapCoversEveryIndexOnce(t *testing.T) {
	for _, par := range []int{1, 3, 16} {
		var counts [100]int32
		Map(len(counts), par, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("parallel=%d: index %d ran %d times", par, i, c)
			}
		}
	}
	Map(0, 4, func(int) { t.Fatal("Map(0) must not call fn") })
}

// lockstepJobs builds a seed sweep in canonical lockstep shape: every
// job compiles the byte-identical timeline structure (fixed structural
// rng seed, fresh app instance per build) and varies only the engine
// seed. key tags every job; "" leaves the sweep scalar.
func lockstepJobs(key string) []Job {
	var jobs []Job
	for _, seed := range []int64{1, 2, 3, 4} {
		seed := seed
		jobs = append(jobs, Job{
			App: workload.NameSpotify, Scheme: "schedutil", Platform: "note9", Seed: seed,
			LockstepKey: key,
			Build: func() (sim.Config, error) {
				p := platform.MustGet("note9")
				rng := rand.New(rand.NewSource(99))
				tl := &session.Timeline{Scripts: []session.Script{
					session.ForApp(workload.ByName(workload.NameSpotify), session.Seconds(20), rng),
				}}
				return p.Config(tl, seed), nil
			},
		})
	}
	return jobs
}

func TestLockstepSpans(t *testing.T) {
	key := func(k string) Job { return Job{LockstepKey: k} }
	got := lockstepSpans([]Job{key(""), key("a"), key("a"), key("b"), key(""), key(""), key("a")})
	want := []span{{0, 1}, {1, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}}
	if len(got) != len(want) {
		t.Fatalf("spans = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("span %d = %v, want %v", i, got[i], want[i])
		}
	}
	if n := len(lockstepSpans(nil)); n != 0 {
		t.Fatalf("empty job list produced %d spans", n)
	}
}

// The wiring contract: a keyed sweep routes through one BatchEngine and
// still produces byte-identical results, labels and order versus the
// same jobs run scalar.
func TestRunLockstepMatchesScalar(t *testing.T) {
	scalar := Run(lockstepJobs(""), Options{Parallel: 1})
	lockstep := Run(lockstepJobs("sweep"), Options{Parallel: 2})

	a, err := json.Marshal(scalar)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(lockstep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("lockstep sweep diverged from scalar sweep")
	}
	for i, r := range lockstep {
		if r.Index != i || r.Err != "" {
			t.Fatalf("result %d: index %d err %q", i, r.Index, r.Err)
		}
	}
}

// A mis-keyed span (configs that are not lockstep-compatible) must fall
// back to scalar engines and still return every job's correct result.
func TestRunLockstepFallsBackOnIncompatibleSpan(t *testing.T) {
	mutate := func(jobs []Job) []Job {
		orig := jobs[1].Build
		jobs[1].Build = func() (sim.Config, error) {
			cfg, err := orig()
			cfg.Display.SetRefresh(120, 0)
			return cfg, err
		}
		return jobs
	}
	want := Run(mutate(lockstepJobs("")), Options{Parallel: 1})
	got := Run(mutate(lockstepJobs("bad")), Options{Parallel: 1})
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Fatal("fallback span diverged from scalar run")
	}
	for i, r := range got {
		if r.Err != "" {
			t.Fatalf("job %d failed in fallback: %s", i, r.Err)
		}
	}
}

// A build error inside a keyed span must not poison its span-mates: the
// whole span falls back to per-job scalar runs, so healthy jobs succeed
// and only the broken one reports its error.
func TestRunLockstepBuildErrorFallsBack(t *testing.T) {
	jobs := lockstepJobs("sweep")
	jobs[2].Build = func() (sim.Config, error) { return sim.Config{}, nil } // invalid: fails sim.New
	results := Run(jobs, Options{Parallel: 1})
	for i, r := range results {
		if i == 2 {
			if r.Err == "" {
				t.Fatal("broken job must surface an error")
			}
			continue
		}
		if r.Err != "" {
			t.Fatalf("healthy job %d poisoned: %s", i, r.Err)
		}
		if r.Result.DurationS != 20 {
			t.Fatalf("job %d duration %g", i, r.Result.DurationS)
		}
	}
}

// wrappedApp hides a ProfileApp behind the plain workload.App
// interface, as an instrumenting wrapper does.
type wrappedApp struct{ workload.App }

// The batch engine steps only *workload.ProfileApp lanes: NewBatch
// refuses a span whose apps are wrapped, and Run falls back to scalar
// engines with byte-identical results.
func TestRunLockstepRefusesWrappedApps(t *testing.T) {
	wrap := func(jobs []Job) []Job {
		for i := range jobs {
			orig := jobs[i].Build
			jobs[i].Build = func() (sim.Config, error) {
				cfg, err := orig()
				for s := range cfg.Timeline.Scripts {
					cfg.Timeline.Scripts[s].App = wrappedApp{cfg.Timeline.Scripts[s].App}
				}
				return cfg, err
			}
		}
		return jobs
	}
	if _, err := buildBatch(wrap(lockstepJobs("sweep"))); err == nil {
		t.Fatal("NewBatch accepted a wrapped app")
	}
	want := Run(lockstepJobs(""), Options{Parallel: 1})
	got := Run(wrap(lockstepJobs("sweep")), Options{Parallel: 2})
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Fatal("wrapped-app span diverged from the scalar run")
	}
	for i, r := range got {
		if r.Err != "" {
			t.Fatalf("job %d failed in fallback: %s", i, r.Err)
		}
	}
}

// Job order must hold even when the pool is wider than the job list —
// the worker clamp in Options.workers keeps index dispatch well-formed.
func TestRunOrderWithMoreWorkersThanJobs(t *testing.T) {
	jobs := gridJobs()[:3]
	want := Run(gridJobs()[:3], Options{Parallel: 1})
	got := Run(jobs, Options{Parallel: 32})
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Fatal("workers > jobs changed results or order")
	}
	for i, r := range got {
		if r.Index != i {
			t.Fatalf("result %d carries index %d", i, r.Index)
		}
	}
}
