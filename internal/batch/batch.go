// Package batch is the parallel run orchestrator: it fans a grid of
// simulation jobs (app × scheme × seed × platform) out across a worker
// pool, one private sim.Engine per job, and returns results in
// deterministic job order regardless of worker count. Determinism is
// structural, not accidental: a Job owns everything mutable (its Build
// factory constructs a fresh config, chip, models and timeline), so the
// schedule cannot leak between runs — same-grid outputs are
// byte-identical at -parallel 1 and -parallel 8, the invariant
// deterministic-simulator practice demands and the batch tests pin.
package batch

import (
	"runtime"
	"sync"

	"nextdvfs/internal/sim"
)

// Job is one simulation in a grid. App/Scheme/Platform/Seed are labels
// carried through to the result for reporting and grouping; Build does
// the work: it must return a fresh, fully independent sim.Config every
// call (no shared chips, models, timelines or controllers with any
// other concurrently runnable job).
type Job struct {
	App      string
	Scheme   string
	Platform string
	Seed     int64
	Build    func() (sim.Config, error)
	// LockstepKey, when non-empty, marks this job as batchable: a run of
	// CONSECUTIVE jobs carrying the same key is executed through one
	// sim.BatchEngine (one shared tick loop, struct-of-arrays state)
	// instead of one scalar engine per job. Callers set the same key on
	// jobs that share platform/scenario structure and differ only by
	// seed or scheme — exactly what sim.NewBatch accepts. The key is an
	// optimization hint, never a correctness risk: lanes are
	// bit-identical to scalar runs, results still land in job order, and
	// a mis-keyed run falls back to scalar engines.
	LockstepKey string
}

// RunResult pairs a job's labels with its simulation outcome. Err is a
// string (empty = success) so result slices marshal and compare
// byte-for-byte in determinism checks.
type RunResult struct {
	Index    int
	App      string
	Scheme   string
	Platform string
	Seed     int64
	Result   sim.Result
	Err      string
}

// Options sizes the worker pool.
type Options struct {
	// Parallel is the worker count; 0 or negative means GOMAXPROCS.
	Parallel int
}

func (o Options) workers(n int) int {
	w := o.Parallel
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes every job on the pool and returns one RunResult per job,
// in job order. A job that fails to build or validate reports its error
// in the result instead of aborting the grid. Consecutive jobs sharing
// a non-empty LockstepKey run as one lockstep batch per worker; all
// other jobs get a private scalar engine as before.
func Run(jobs []Job, opts Options) []RunResult {
	results := make([]RunResult, len(jobs))
	spans := lockstepSpans(jobs)
	Map(len(spans), opts.Parallel, func(s int) {
		sp := spans[s]
		if sp.end-sp.start == 1 {
			results[sp.start] = runJob(sp.start, jobs[sp.start])
			return
		}
		runLockstep(jobs, sp.start, sp.end, results)
	})
	return results
}

// span is one schedulable unit: a single job, or a run of consecutive
// jobs sharing a LockstepKey. Half-open [start, end).
type span struct{ start, end int }

// lockstepSpans partitions the job list into schedulable units. Only
// CONSECUTIVE equal keys group — callers order their grids so batchable
// jobs are adjacent, and interleaving distinct work never silently
// serializes behind one worker.
func lockstepSpans(jobs []Job) []span {
	spans := make([]span, 0, len(jobs))
	for i := 0; i < len(jobs); {
		j := i + 1
		if jobs[i].LockstepKey != "" {
			for j < len(jobs) && jobs[j].LockstepKey == jobs[i].LockstepKey {
				j++
			}
		}
		spans = append(spans, span{start: i, end: j})
		i = j
	}
	return spans
}

// runLockstep executes jobs[start:end) through one sim.BatchEngine.
// Fallback is total, not partial: if any lane fails to build, or the
// configs turn out not to be lockstep-compatible, every job in the span
// runs through runJob on its own scalar engine — same results (lockstep
// lanes are bit-identical to scalar runs), just without the shared tick
// loop. Re-running Build is safe: it returns independent configs every
// call.
func runLockstep(jobs []Job, start, end int, results []RunResult) {
	be, err := buildBatch(jobs[start:end])
	if err != nil {
		for i := start; i < end; i++ {
			results[i] = runJob(i, jobs[i])
		}
		return
	}
	for r, res := range be.Run() {
		i := start + r
		j := jobs[i]
		results[i] = RunResult{Index: i, App: j.App, Scheme: j.Scheme, Platform: j.Platform, Seed: j.Seed, Result: res}
	}
}

// buildBatch builds every job's config and one lockstep engine over them.
func buildBatch(jobs []Job) (*sim.BatchEngine, error) {
	cfgs := make([]sim.Config, len(jobs))
	for r, j := range jobs {
		cfg, err := j.Build()
		if err != nil {
			return nil, err
		}
		cfgs[r] = cfg
	}
	return sim.NewBatch(cfgs)
}

func runJob(i int, j Job) RunResult {
	rr := RunResult{Index: i, App: j.App, Scheme: j.Scheme, Platform: j.Platform, Seed: j.Seed}
	cfg, err := j.Build()
	if err != nil {
		rr.Err = err.Error()
		return rr
	}
	eng, err := sim.New(cfg)
	if err != nil {
		rr.Err = err.Error()
		return rr
	}
	rr.Result = eng.Run()
	return rr
}

// Map runs fn(0..n-1) across min(parallel, n) workers (parallel ≤ 0 →
// GOMAXPROCS) and returns when all calls finish. It is the generic
// fan-out under Run, and what experiment drivers use when one grid cell
// is more than a single simulation (e.g. train-then-evaluate per app).
// fn must confine its writes to cell i of the caller's result slice.
func Map(n, parallel int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Options{Parallel: parallel}.workers(n)
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
