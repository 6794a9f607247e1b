package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"nextdvfs/internal/core"
	"nextdvfs/internal/ctrl"
	"nextdvfs/internal/exp"
	"nextdvfs/internal/governor"
	"nextdvfs/internal/learner"
	"nextdvfs/internal/platform"
	"nextdvfs/internal/scenario"
	"nextdvfs/internal/sim"
	"nextdvfs/internal/workload"
)

// The sim workloads build their configs by hand from the same pieces
// exp.ScenarioGrid and exp.SeedSweep use (scenario.Compile,
// platform.Config, exp's scheme registry and agent defaults), so the
// benchmark can wrap the interface-typed layers; the correctness oracle
// re-runs cells through exp itself and demands identical results.
//
// One op is one simulated second of one session (sim-grid) or of one
// lockstep batch (sim-sweep). Its latency is the host time that second
// took, stamped by a governor wrapper at the first decision past each
// simulated-second boundary.

const simPlatform = "note9"

// simRun is the state of one sim workload run.
type simRun struct {
	p     Params
	plat  platform.Platform
	names []string // scenario presets, sorted: every seed covers the same mix
	rec   *Record

	clock secondClock
	ticks int64 // simulated ticks completed (lane-ticks in sim-sweep)
	ops   int64 // simulated seconds completed (of sessions or lockstep batches)
	units []unitStat

	tr *tracer // nil outside the traced phase
	// traced-phase layers timed around the benchmark's own calls.
	compile, build *layerStat
	recorder       powerRecorder
}

func newSimRun(name string, p Params) (*simRun, error) {
	plat, err := platform.Get(simPlatform)
	if err != nil {
		return nil, err
	}
	return &simRun{p: p, plat: plat, names: scenario.Names(), rec: newRecord(name, p),
		clock: secondClock{ref: newHostRef(p.Seed, p.Elasticity)}}, nil
}

// simRefEvery is how many simulated seconds pass between reference
// chunks (see hostref.go).
const simRefEvery = 8

// secondClock stamps the host time of every simulated second, and runs
// the reference chunk between some of them.
type secondClock struct {
	next    int64 // simulated µs of the next boundary
	last    time.Time
	samples []float64 // host ms per simulated second
	ref     *hostRef
	n       int
	refNS   int64 // reference time so far, left out of samples and unit walls
}

func (c *secondClock) begin() { c.next, c.last = 1_000_000, time.Now() }

func (c *secondClock) mark(nowUS int64) {
	if nowUS < c.next {
		return
	}
	t := time.Now()
	c.samples = append(c.samples, float64(t.Sub(c.last))/1e6)
	c.last = t
	c.next += 1_000_000
	if c.n++; c.n%simRefEvery == 0 {
		c.refNS += int64(c.ref.run())
		c.last = time.Now()
	}
}

// govProbe wraps a governor: untraced it stamps simulated seconds,
// traced it times Decide and samples power-table inputs for replay.
type govProbe struct {
	governor.Governor
	clock *secondClock // nil: no stamps
	tr    *tracer      // nil: untraced
	layer *layerStat
	rec   *powerRecorder
	trace int64
}

func (g *govProbe) Decide(nowUS int64, obs []governor.Observation) {
	if g.clock != nil {
		g.clock.mark(nowUS)
	}
	if g.tr == nil {
		g.Governor.Decide(nowUS, obs)
		return
	}
	g.rec.sample(obs)
	g.layer.calls.Add(1)
	start := nowNS()
	g.Governor.Decide(nowUS, obs)
	g.tr.observe(g.layer, start, nowNS(), child(g.trace))
}

// boostProbe forwards governor.InputBooster, so an engine still finds
// the boost hook on a wrapped schedutil.
type boostProbe struct {
	*govProbe
	booster governor.InputBooster
}

func (b boostProbe) OnInput(nowUS int64) { b.booster.OnInput(nowUS) }

func wrapGovernor(g *govProbe) governor.Governor {
	if b, ok := g.Governor.(governor.InputBooster); ok {
		return boostProbe{g, b}
	}
	return g
}

// appProbe times an app's per-tick work (sampled) and frame starts.
type appProbe struct {
	workload.App
	tr          *tracer
	tick, frame *layerStat
	trace       int64
}

func (a *appProbe) Tick(nowUS, dtUS int64, inter workload.Interaction, rng *rand.Rand) workload.Demand {
	if !a.tick.sample() {
		return a.App.Tick(nowUS, dtUS, inter, rng)
	}
	start := nowNS()
	d := a.App.Tick(nowUS, dtUS, inter, rng)
	a.tr.observe(a.tick, start, nowNS(), child(a.trace))
	return d
}

func (a *appProbe) StartFrame(inter workload.Interaction, rng *rand.Rand) workload.FrameJob {
	a.frame.calls.Add(1)
	start := nowNS()
	j := a.App.StartFrame(inter, rng)
	a.tr.observe(a.frame, start, nowNS(), child(a.trace))
	return j
}

// ctrlProbe times the agent's observe and control steps.
type ctrlProbe struct {
	ctrl.Controller
	tr               *tracer
	observe, control *layerStat
	trace            int64
}

func (c *ctrlProbe) Observe(snap ctrl.Snapshot) {
	c.observe.calls.Add(1)
	start := nowNS()
	c.Controller.Observe(snap)
	c.tr.observe(c.observe, start, nowNS(), child(c.trace))
}

func (c *ctrlProbe) Control(snap ctrl.Snapshot, act ctrl.Actuator) {
	c.control.calls.Add(1)
	start := nowNS()
	c.Controller.Control(snap, act)
	c.tr.observe(c.control, start, nowNS(), child(c.trace))
}

// powerRecorder keeps a sample of the (cluster, OPP, utilization)
// inputs the engines fed the power tables, for the power replay.
type powerRecorder struct {
	n     int
	calls []powerCall
}

type powerCall struct {
	cluster, opp int
	util         float64
}

func (r *powerRecorder) sample(obs []governor.Observation) {
	if r.n++; r.n%16 != 0 || len(r.calls) >= 1<<16 {
		return
	}
	for i, o := range obs {
		r.calls = append(r.calls, powerCall{cluster: i, opp: o.Cluster.Cur(), util: o.Util})
	}
}

// sessionConfig is exp's per-session config: the scenario compiled at
// seed, the platform's fresh hardware, the environment schedules. The
// returned config carries the benchmark's governor wrapper.
func (s *simRun) sessionConfig(scn scenario.Scenario, seed int64, stamp bool) (sim.Config, error) {
	start := nowNS()
	compiled, err := scenario.Compile(scn, seed, s.plat.AmbientC)
	if err != nil {
		return sim.Config{}, err
	}
	if s.tr != nil {
		s.compile.calls.Add(1)
		s.tr.observe(s.compile, start, nowNS(), span{})
	}
	cfg := s.plat.Config(compiled.Timeline, seed)
	cfg.Ambient, cfg.Refresh = compiled.Ambient, compiled.Refresh
	probe := &govProbe{Governor: cfg.Governor}
	if stamp {
		probe.clock = &s.clock
	}
	if s.tr != nil {
		probe.tr, probe.layer, probe.rec = s.tr, s.tr.layers["governor.decide"], &s.recorder
	}
	cfg.Governor = wrapGovernor(probe)
	return cfg, nil
}

// traceSession stamps the session's trace ID on every probe in cfg and
// wraps its apps (scalar sessions only: wrapping an app would take the
// batch engine off its devirtualized fast path).
func (s *simRun) traceSession(cfg *sim.Config, trace int64, wrapApps bool) {
	if s.tr == nil {
		return
	}
	if b, ok := cfg.Governor.(boostProbe); ok {
		b.govProbe.trace = trace
	} else if g, ok := cfg.Governor.(*govProbe); ok {
		g.trace = trace
	}
	if wrapApps {
		for i := range cfg.Timeline.Scripts {
			sc := &cfg.Timeline.Scripts[i]
			sc.App = &appProbe{App: sc.App, tr: s.tr, tick: s.tr.layers["workload.tick"], frame: s.tr.layers["workload.startframe"], trace: trace}
		}
	}
	if cfg.Controller != nil {
		cfg.Controller = &ctrlProbe{Controller: cfg.Controller, tr: s.tr,
			observe: s.tr.layers["agent.observe"], control: s.tr.layers["agent.control"], trace: trace}
	}
}

// runSession runs one scalar session and accounts its work.
func (s *simRun) runSession(cfg sim.Config) (sim.Result, error) {
	trace := int64(0)
	if s.tr != nil {
		trace = s.tr.newTrace()
		s.traceSession(&cfg, trace, true)
	}
	start := nowNS()
	eng, err := sim.New(cfg)
	if err != nil {
		return sim.Result{}, err
	}
	if s.tr != nil {
		s.build.calls.Add(1)
		s.tr.observe(s.build, start, nowNS(), child(trace))
	}
	s.clock.begin()
	runStart := nowNS()
	res := eng.Run()
	if s.tr != nil {
		s.tr.keep(span{Name: "sim.session", Start: runStart, End: nowNS(), ID: trace, Trace: trace})
	}
	durUS := cfg.Timeline.DurUS()
	s.ticks += durUS / 1000
	s.ops += durUS / 1_000_000
	return res, nil
}

// digestResults is the sha256 of the results at full precision.
func digestResults(rs ...sim.Result) string {
	h := sha256.New()
	for _, r := range rs {
		fmt.Fprintf(h, "%+v\n", r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// gridCell is one (cycle, preset, scheme) cell of sim-grid. Cycle c
// runs the whole preset library at structural seed seed+c.
type gridCell struct {
	cycle, preset int
	scheme        string
}

var gridSchemes = []string{"schedutil", "next"}

func (s *simRun) cellAt(i int) gridCell {
	perCycle := len(s.names) * len(gridSchemes)
	return gridCell{cycle: i / perCycle, preset: i % perCycle / len(gridSchemes), scheme: gridSchemes[i%len(gridSchemes)]}
}

func (s *simRun) cellKey(c gridCell) string {
	return fmt.Sprintf("c%d/%s/%s", c.cycle, s.names[c.preset], c.scheme)
}

// cellSeed is the base seed exp.ScenarioGrid gives the cell's
// (scenario, platform) pair when it runs the whole library at seed+cycle.
func (s *simRun) cellSeed(c gridCell) int64 {
	return s.p.Seed + int64(c.cycle) + int64(c.preset)*100_003
}

// cellConfigs builds a grid cell's sessions in run order: for an agent
// scheme, TrainSessions training sessions sharing one fresh agent, then
// the evaluation session — exp.ScenarioGrid's seeds and wiring.
func (s *simRun) cellConfigs(c gridCell, stamp bool) ([]sim.Config, error) {
	scn := scenario.Scaled(scenario.MustGet(s.names[c.preset]), s.p.Scale)
	base := s.cellSeed(c)
	spec, err := exp.GetScheme(c.scheme)
	if err != nil {
		return nil, err
	}
	var cfgs []sim.Config
	var agent *core.Agent
	if spec.TrainsAgent {
		acfg := exp.DefaultAgentConfigFor(s.plat)
		acfg.Seed = base
		acfg.Learner = learner.Normalize(learner.DefaultLearner)
		agent = core.NewAgent(acfg)
		for i := 1; i <= s.p.TrainSessions; i++ {
			cfg, err := s.sessionConfig(scn, base+int64(i), stamp)
			if err != nil {
				return nil, err
			}
			cfg.Controller = agent
			cfgs = append(cfgs, cfg)
		}
	}
	cfg, err := s.sessionConfig(scn, base+500, stamp)
	if err != nil {
		return nil, err
	}
	spec.Configure(&cfg, s.plat, agent)
	return append(cfgs, cfg), nil
}

// runCell runs one grid cell and returns its evaluation result. It
// reports done=false if the deadline passed before the cell finished; a
// cell of the first cycle always finishes.
func (s *simRun) runCell(c gridCell, deadline time.Time, stamp bool) (res sim.Result, done bool, err error) {
	cfgs, err := s.cellConfigs(c, stamp)
	if err != nil {
		return res, false, err
	}
	for _, cfg := range cfgs {
		if c.cycle > 0 && time.Now().After(deadline) {
			return res, false, nil
		}
		if res, err = s.runSession(cfg); err != nil {
			return res, false, err
		}
	}
	return res, true, nil
}

// gridPhase runs cells in order until the deadline, and always the
// whole first cycle, so every preset and scheme weighs in (see
// cycleWeighted). It returns the digests of the cells it finished, and
// the first cell of each scheme's result for the exp oracle.
func (s *simRun) gridPhase(d time.Duration, stamp bool) (digests []string, first map[string]sim.Result, err error) {
	deadline := time.Now().Add(d)
	first = map[string]sim.Result{}
	for i := 0; ; i++ {
		c := s.cellAt(i)
		u := s.beginUnit(c.preset*len(gridSchemes) + i%len(gridSchemes))
		res, done, err := s.runCell(c, deadline, stamp)
		if err != nil {
			return nil, nil, err
		}
		if !done {
			return digests, first, nil
		}
		s.endUnit(u)
		digests = append(digests, digestResults(res))
		if i < len(gridSchemes) {
			first[c.scheme] = res
		}
	}
}

// sweepSpan builds one lockstep span of sim-sweep: Lanes copies of the
// preset compiled at the cycle's structural seed, lane r running engine
// seed structSeed+r — exp.SeedSweep's lane configs.
func (s *simRun) sweepSpan(cycle, preset int, stamp bool) ([]sim.Config, error) {
	scn := scenario.Scaled(scenario.MustGet(s.names[preset]), s.p.Scale)
	structSeed := s.p.Seed + int64(cycle)
	cfgs := make([]sim.Config, s.p.Lanes)
	for r := range cfgs {
		cfg, err := s.sessionConfig(scn, structSeed, stamp && r == 0)
		if err != nil {
			return nil, err
		}
		cfg.Seed = structSeed + int64(r)
		cfgs[r] = cfg
	}
	return cfgs, nil
}

func (s *simRun) runSpan(cfgs []sim.Config) ([]sim.Result, error) {
	trace := int64(0)
	if s.tr != nil {
		trace = s.tr.newTrace()
		for r := range cfgs {
			s.traceSession(&cfgs[r], trace, false)
		}
	}
	start := nowNS()
	be, err := sim.NewBatch(cfgs)
	if err != nil {
		// Never time the scalar fallback in place of the batch engine.
		return nil, fmt.Errorf("lockstep batch rejected its configs: %w", err)
	}
	if s.tr != nil {
		s.build.calls.Add(1)
		s.tr.observe(s.build, start, nowNS(), child(trace))
	}
	s.clock.begin()
	runStart := nowNS()
	res := be.Run()
	if s.tr != nil {
		s.tr.keep(span{Name: "sim.batch", Start: runStart, End: nowNS(), ID: trace, Trace: trace})
	}
	durUS := cfgs[0].Timeline.DurUS()
	s.ticks += int64(len(cfgs)) * durUS / 1000
	s.ops += durUS / 1_000_000
	return res, nil
}

func (s *simRun) spanKey(cycle, preset int) string {
	return fmt.Sprintf("c%d/%s", cycle, s.names[preset])
}

// sweepPhase runs spans (cycle-major, presets in order) until the
// deadline, and always the whole first cycle. It keeps lane 0 of each
// preset's first span and the whole first span for the oracles.
func (s *simRun) sweepPhase(d time.Duration, stamp bool) (digests []string, lane0 map[int]sim.Result, firstSpan []sim.Result, err error) {
	deadline := time.Now().Add(d)
	lane0 = map[int]sim.Result{}
	for i := 0; i < len(s.names) || time.Now().Before(deadline); i++ {
		cycle, preset := i/len(s.names), i%len(s.names)
		u := s.beginUnit(preset)
		cfgs, err := s.sweepSpan(cycle, preset, stamp)
		if err != nil {
			return nil, nil, nil, err
		}
		res, err := s.runSpan(cfgs)
		if err != nil {
			return nil, nil, nil, err
		}
		s.endUnit(u)
		digests = append(digests, digestResults(res...))
		if cycle == 0 {
			lane0[preset] = res[0]
		}
		if i == 0 {
			firstSpan = res
		}
	}
	return digests, lane0, firstSpan, nil
}

// buildCycle compiles and builds every engine of cycle c — each session
// of each grid cell, or each lockstep span — and hands each to keep.
func (s *simRun) buildCycle(c int, batched bool, keep func(any)) error {
	for i := range s.names {
		if batched {
			cfgs, err := s.sweepSpan(c, i, false)
			if err != nil {
				return err
			}
			be, err := sim.NewBatch(cfgs)
			if err != nil {
				return err
			}
			keep(be)
			continue
		}
		for _, scheme := range gridSchemes {
			cfgs, err := s.cellConfigs(gridCell{cycle: c, preset: i, scheme: scheme}, false)
			if err != nil {
				return err
			}
			for _, cfg := range cfgs {
				eng, err := sim.New(cfg)
				if err != nil {
					return err
				}
				keep(eng)
			}
		}
	}
	return nil
}

// setupOnce builds and discards every engine of the run's first
// SetupCycles cycles: the set-up a grid pays before its sessions tick.
func (s *simRun) setupOnce(batched bool) error {
	for c := 0; c < s.p.SetupCycles; c++ {
		if err := s.buildCycle(c, batched, func(any) {}); err != nil {
			return err
		}
	}
	return nil
}

// engineHeapMiB is the live heap the engines of one cycle hold: what the
// simulated sessions themselves keep in memory, apart from the
// benchmark's own bookkeeping. The engines of the first SetupCycles
// cycles are built and held at once, and the mean per cycle is
// reported, so the sizes of a single seed's scenarios do not set it.
func (s *simRun) engineHeapMiB(batched bool) (float64, error) {
	before := liveHeapMiB()
	var held []any
	for c := 0; c < s.p.SetupCycles; c++ {
		if err := s.buildCycle(c, batched, func(e any) { held = append(held, e) }); err != nil {
			return 0, err
		}
	}
	after := liveHeapMiB()
	runtime.KeepAlive(held)
	return (after - before) / float64(s.p.SetupCycles), nil
}

// setup times SetupReps set-ups.
func (s *simRun) setup(batched bool) (*setupTimer, error) {
	timer := newSetupTimer(s.p)
	for i := 0; i < s.p.SetupReps; i++ {
		if err := timer.time(func() error { return s.setupOnce(batched) }); err != nil {
			return nil, err
		}
	}
	return timer, nil
}

// unitStat is one finished unit of sim work — a grid cell or a sweep
// span — with the latency samples it produced.
type unitStat struct {
	group      int // which preset (and scheme) the unit ran
	ticks      int64
	wall       time.Duration // without the reference chunks run inside it
	lo, hi     int           // its range of clock samples
	refLo, ref int           // its range of reference chunks
	start      time.Time
	refNS      int64
}

func (s *simRun) beginUnit(group int) unitStat {
	return unitStat{group: group, ticks: s.ticks, lo: len(s.clock.samples), refLo: len(s.clock.ref.samples),
		start: time.Now(), refNS: s.clock.refNS}
}

func (s *simRun) endUnit(u unitStat) {
	u.ticks = s.ticks - u.ticks
	u.wall = time.Since(u.start) - time.Duration(s.clock.refNS-u.refNS)
	u.hi, u.ref = len(s.clock.samples), len(s.clock.ref.samples)
	s.units = append(s.units, u)
}

// speed is the unit's host speed: from the reference chunks run during
// it, reaching back to earlier ones when it ran fewer than a barrier's
// worth.
func (u unitStat) speed(ref *hostRef) float64 {
	return ref.speed(max(min(u.refLo, u.ref-refsPerBarrier), 0), u.ref)
}

// cycleWeighted summarizes the finished units with each preset (and
// scheme) weighted once, however many cycles of it the run finished. A
// run ends part-way through a cycle, and how far it gets depends on the
// host's speed; without the weights a faster run would also be a run
// over a different preset mix. The phases always finish the first cycle,
// so no group is ever missing. Each unit's times are also scaled by its
// own host speed (see hostref.go).
func (s *simRun) cycleWeighted(m *measured) {
	count := map[int]float64{}
	for _, u := range s.units {
		count[u.group]++
	}
	m.cycles = len(s.units)
	for _, n := range count {
		m.cycles = min(m.cycles, int(n))
	}
	var ticks, secs, scaledSecs float64
	var vals, scaled, weights []float64
	for _, u := range s.units {
		w, speed := 1/count[u.group], u.speed(s.clock.ref)
		ticks += w * float64(u.ticks)
		secs += w * u.wall.Seconds()
		scaledSecs += w * u.wall.Seconds() * speed
		for _, v := range s.clock.samples[u.lo:u.hi] {
			vals = append(vals, v)
			scaled = append(scaled, v*speed)
			weights = append(weights, w)
		}
	}
	m.tput, m.scaledTput = ticks/secs, ticks/scaledSecs
	m.p50, m.p99 = weightedPercentile(vals, weights, 0.5), weightedPercentile(vals, weights, 0.99)
	m.scaledP50, m.scaledP99 = weightedPercentile(scaled, weights, 0.5), weightedPercentile(scaled, weights, 0.99)
	m.speed = scaledSecs / secs
}

// measured is what one timed phase produced.
type measured struct {
	elapsed      time.Duration
	ticks, ops   int64
	before, done processStats
	tput         float64 // cycle-weighted ticks per host second
	p50, p99     float64 // cycle-weighted host ms per simulated second
	samples      int
	cycles       int     // cycles every preset (and scheme) finished
	speed        float64 // host speed relative to the defining host, weighted by time

	scaledTput, scaledP50, scaledP99 float64 // the same, scaled to the defining host
}

func (s *simRun) timed(phase func() error) (measured, error) {
	s.ticks, s.ops, s.clock.samples, s.units = 0, 0, nil, nil
	s.clock.ref.samples = s.clock.ref.samples[:0]
	runtime.GC()
	before := readProcessStats()
	if err := phase(); err != nil {
		return measured{}, err
	}
	done := readProcessStats()
	m := measured{elapsed: done.at.Sub(before.at), ticks: s.ticks, ops: s.ops,
		before: before, done: done, samples: len(s.clock.samples)}
	s.cycleWeighted(&m)
	s.clock.samples, s.units = nil, nil
	return m, nil
}

// report sets the end-to-end metrics from an untraced phase.
func (s *simRun) report(m measured, setup *setupTimer, heapMiB float64) {
	r := s.rec
	r.Attempted += m.ops
	setup.report(r)
	r.info("measured.throughput_per_s", m.tput, "1/s")
	r.info("measured.op_p50_ms", m.p50, "ms")
	r.info("measured.op_p99_ms", m.p99, "ms")
	r.set("throughput_per_s", m.scaledTput, "1/s")
	r.set("op_p50_ms", m.scaledP50, "ms")
	r.set("op_p99_ms", m.scaledP99, "ms")
	r.info("host_speed", m.speed, "x")
	r.set("live_heap_mb", heapMiB, "MiB")
	r.info("op_samples", float64(m.samples), "count")
	r.info("op_p99_supported", boolFloat(supported(0.99, m.samples)), "bool")
	r.info("simticks", float64(m.ticks), "count")
	r.info("cycles_finished", float64(m.cycles), "count")
}

func boolFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// checkGridOracle re-runs the first cell of each scheme through
// exp.ScenarioGrid and demands bit-identical results.
func (s *simRun) checkGridOracle(first map[string]sim.Result) error {
	for _, scheme := range gridSchemes {
		mine, ok := first[scheme]
		if !ok {
			continue
		}
		c := gridCell{scheme: scheme}
		rows, err := exp.ScenarioGrid(exp.ScenarioOptions{
			Seed: s.cellSeed(c), Scenarios: []string{s.names[0]}, Schemes: []string{scheme},
			Parallel: 1, DurationScale: s.p.Scale, TrainSessions: s.p.TrainSessions,
		})
		if err != nil {
			return err
		}
		if len(rows) != 1 || digestResults(rows[0].Result) != digestResults(mine) {
			s.rec.fail("%s differs from exp.ScenarioGrid", s.cellKey(c))
		}
	}
	return nil
}

// checkSweepOracle re-runs lane 0 of each preset's first span on the
// scalar engine, and the first span through exp.SeedSweep.
func (s *simRun) checkSweepOracle(lane0 map[int]sim.Result, firstSpan []sim.Result) error {
	for preset, mine := range lane0 {
		cfgs, err := s.sweepSpan(0, preset, false)
		if err != nil {
			return err
		}
		eng, err := sim.New(cfgs[0])
		if err != nil {
			return err
		}
		if digestResults(eng.Run()) != digestResults(mine) {
			s.rec.fail("%s lane 0 differs from the scalar engine", s.spanKey(0, preset))
		}
	}
	if firstSpan == nil {
		return nil
	}
	rows, err := exp.SeedSweep(exp.SeedSweepOptions{
		Scenario: s.names[0], Platform: simPlatform, Seed: s.p.Seed, Runs: s.p.Lanes,
		Parallel: 1, DurationScale: s.p.Scale, Lockstep: true,
	})
	if err != nil {
		return err
	}
	theirs := make([]sim.Result, len(rows))
	for i, r := range rows {
		theirs[i] = r.Result
	}
	if digestResults(theirs...) != digestResults(firstSpan...) {
		s.rec.fail("%s differs from exp.SeedSweep", s.spanKey(0, 0))
	}
	return nil
}

func runSimGrid(p Params) (*Record, error)  { return runSim("sim-grid", p, false) }
func runSimSweep(p Params) (*Record, error) { return runSim("sim-sweep", p, true) }

func runSim(name string, p Params, batched bool) (*Record, error) {
	s, err := newSimRun(name, p)
	if err != nil {
		return nil, err
	}
	setup, err := s.setup(batched)
	if err != nil {
		return nil, err
	}
	d := p.Duration
	if p.Trace {
		d /= 2 // the traced run splits its time between an untraced and a traced phase
	}
	var digests []string
	var first map[string]sim.Result
	var lane0 map[int]sim.Result
	var firstSpan []sim.Result
	untraced, err := s.timed(func() error {
		var err error
		if batched {
			digests, lane0, firstSpan, err = s.sweepPhase(d, true)
		} else {
			digests, first, err = s.gridPhase(d, true)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	s.checkDigests(digests, batched)
	if batched {
		err = s.checkSweepOracle(lane0, firstSpan)
	} else {
		err = s.checkGridOracle(first)
	}
	if err != nil {
		return nil, err
	}
	if !p.Trace {
		heapMiB, err := s.engineHeapMiB(batched)
		if err != nil {
			return nil, err
		}
		s.report(untraced, setup, heapMiB)
		s.rec.finish()
		return s.rec, nil
	}
	if err := s.traced(d, batched, untraced, digests); err != nil {
		return nil, err
	}
	s.rec.Attempted += untraced.ops
	s.rec.finish()
	return s.rec, nil
}

// checkDigests pins each finished unit's digest against the pinned
// ones for this seed.
func (s *simRun) checkDigests(digests []string, batched bool) {
	for i, d := range digests {
		key := ""
		if batched {
			key = s.spanKey(i/len(s.names), i%len(s.names))
		} else {
			key = s.cellKey(s.cellAt(i))
		}
		s.rec.checkPin(s.p.Pins, key, d)
	}
}
