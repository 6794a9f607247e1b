// Package nextdvfs is the public API of the Next reproduction: a
// user-interaction-aware reinforcement-learning DVFS agent for CPU-GPU
// mobile MPSoCs (Dey et al., DATE 2020), together with the simulated
// Galaxy Note 9 platform it is evaluated on.
//
// The three entry points cover the common workflows:
//
//   - Run executes one user session on the simulated handset under a
//     chosen management scheme and returns power/thermal/QoS results;
//   - RunScenario replays a composable usage scenario (commute,
//     gaming marathon, doomscroll, … — see Scenarios) with screen-off
//     stretches, ambient-temperature drift and panel-refresh switches;
//   - TrainAgent trains a Next agent on an application the way the
//     paper does (repeated sessions until the Q-table converges);
//   - NewFleet wires several simulated devices into the federated
//     training flow of the paper's Section IV-C.
//
// Applications are referenced by preset name (see Apps) and all
// randomness flows from explicit seeds, so every run is reproducible.
package nextdvfs

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"nextdvfs/internal/aggregator"
	"nextdvfs/internal/cloud"
	"nextdvfs/internal/core"
	"nextdvfs/internal/ctrl"
	"nextdvfs/internal/exp"
	"nextdvfs/internal/fleetd"
	"nextdvfs/internal/fleetsim"
	"nextdvfs/internal/learner"
	"nextdvfs/internal/plan"
	"nextdvfs/internal/platform"
	"nextdvfs/internal/rollout"
	"nextdvfs/internal/scenario"
	"nextdvfs/internal/session"
	"nextdvfs/internal/sim"
	"nextdvfs/internal/workload"
)

// Re-exported result and agent types.
type (
	// Result summarizes one simulated session.
	Result = sim.Result
	// Sample is one trace row of a Result.
	Sample = sim.Sample
	// Agent is the Next reinforcement-learning agent.
	Agent = core.Agent
	// AgentConfig tunes the agent (defaults follow the paper).
	AgentConfig = core.AgentConfig
	// TrainStats reports a training run.
	TrainStats = exp.TrainStats
	// Store persists Q-tables on disk, one JSON file per app.
	Store = core.Store
	// Fleet is a set of devices doing federated training.
	Fleet = cloud.Fleet
	// FleetClient is the device-side API of the fleet policy server
	// (check in, upload tables, trigger merges, pull policies).
	FleetClient = fleetd.Client
	// FleetSimOptions sizes and seeds a simulated device-fleet run
	// against a fleet policy server.
	FleetSimOptions = fleetsim.Options
	// FleetSimReport summarizes a simulated fleet run.
	FleetSimReport = fleetsim.Report
	// FleetRolloutOptions switches a fleet-sim run into staged-rollout
	// A/B mode: train two policy generations, canary the second, and
	// let the server promote or roll back on measured QoS/energy.
	FleetRolloutOptions = fleetsim.RolloutOptions
	// FleetRolloutReport records a staged-rollout A/B run per round.
	FleetRolloutReport = fleetsim.RolloutReport
	// FleetFederationReport records the two-tier federation epoch of an
	// aggregator-tier fleet-sim run (FleetSimOptions.Aggregators > 0).
	FleetFederationReport = fleetsim.FederationReport
)

// DefaultAgentConfig returns the paper-faithful agent configuration.
func DefaultAgentConfig() AgentConfig { return core.DefaultAgentConfig() }

// Scheme selects the power/thermal management stack for a Run.
type Scheme string

// Available schemes.
const (
	// SchemeSchedutil is stock Android's utilization governor with
	// touch input boost (the paper's baseline).
	SchemeSchedutil Scheme = "schedutil"
	// SchemeNext is the paper's agent on top of schedutil. Supply a
	// trained Agent in RunOptions, or a fresh one is created.
	SchemeNext Scheme = "next"
	// SchemeIntQoS is the Int. QoS PM baseline (games only; other apps
	// fall back to schedutil behaviour).
	SchemeIntQoS Scheme = "intqospm"
	// SchemePerformance / SchemePowersave pin every cluster to its
	// cap / floor — the classic bracketing governors.
	SchemePerformance Scheme = "performance"
	SchemePowersave   Scheme = "powersave"
	// SchemeThermalCap is a kernel-thermal-zone-style controller on top
	// of schedutil: user-blind capping on the big sensor's trip point
	// (extension baseline).
	SchemeThermalCap Scheme = "thermalcap"
)

// Apps returns the preset application names: the six Play-store apps of
// the paper's evaluation plus the home screen.
func Apps() []string {
	return []string{
		workload.NameHome, workload.NameFacebook, workload.NameSpotify,
		workload.NameChrome, workload.NameLineage, workload.NamePubG,
		workload.NameYouTube,
	}
}

// Platforms returns the registered simulated-device names (see the
// platform registry): the paper's "note9" plus Snapdragon-class and
// mid-range presets and their 90/120 Hz panel variants.
func Platforms() []string { return platform.Names() }

// PlatformInfo describes one registry entry for listings.
type PlatformInfo struct {
	Name        string
	Description string
	RefreshHz   int
}

// PlatformInfos returns name/description/refresh for every registered
// platform, sorted by name.
func PlatformInfos() []PlatformInfo {
	names := platform.Names()
	infos := make([]PlatformInfo, 0, len(names))
	for _, n := range names {
		p := platform.MustGet(n)
		infos = append(infos, PlatformInfo{Name: p.Name, Description: p.Description, RefreshHz: p.RefreshHz})
	}
	return infos
}

// RunOptions configures a single simulated session.
type RunOptions struct {
	// App is a preset name from Apps. Required unless Fig1Session or
	// Scenario is set.
	App string
	// Platform is a preset device name from Platforms (default
	// "note9", the paper's handset).
	Platform string
	// Seconds is the session length (0 → the paper's per-class default:
	// 5 min for games, 1.5–3 min otherwise). With Scenario it rescales
	// the whole scenario to this total duration.
	Seconds float64
	// Fig1Session replays the paper's home→Facebook→Spotify session
	// instead of a single app.
	Fig1Session bool
	// Scenario names a preset usage scenario from Scenarios — a
	// multi-app session with screen-off stretches, ambient-temperature
	// drift and panel-refresh switches. Mutually exclusive with App and
	// Fig1Session.
	Scenario string
	// Scheme picks the management stack (default SchemeSchedutil).
	Scheme Scheme
	// Agent supplies a (possibly trained) Next agent for SchemeNext.
	Agent *Agent
	// Learner names the TD update rule a fresh SchemeNext agent uses
	// ("" = watkins, the paper's rule; see Learners()). Ignored when
	// Agent is supplied — an existing agent keeps its own learner.
	Learner string
	// Explorer names the exploration strategy of a fresh SchemeNext
	// agent ("" = egreedy; see Explorers()). Ignored when Agent is set.
	Explorer string
	// Seed drives the session's stochastic interaction (default 1).
	Seed int64
	// RecordEverySec samples the trace at this period (0 → 1 s).
	RecordEverySec float64
}

// Run simulates one session on the chosen platform (the Note 9 unless
// RunOptions.Platform says otherwise) and returns its Result.
func Run(opts RunOptions) (Result, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	plat, err := platform.Get(opts.Platform)
	if err != nil {
		return Result{}, fmt.Errorf("nextdvfs: %w (see Platforms())", err)
	}
	var cfg sim.Config
	if opts.Scenario != "" {
		if opts.App != "" || opts.Fig1Session {
			return Result{}, fmt.Errorf("nextdvfs: Scenario is mutually exclusive with App and Fig1Session")
		}
		scn, err := scenario.Get(opts.Scenario)
		if err != nil {
			return Result{}, fmt.Errorf("nextdvfs: %w", err)
		}
		cfg, err = exp.ScenarioConfig(scenario.ScaledTo(scn, opts.Seconds), plat, opts.Seed, opts.Seed)
		if err != nil {
			return Result{}, fmt.Errorf("nextdvfs: %w", err)
		}
	} else {
		tl, err := timelineFor(opts)
		if err != nil {
			return Result{}, err
		}
		cfg = plat.Config(tl, opts.Seed)
	}
	if opts.RecordEverySec > 0 {
		cfg.RecordIntervalUS = int64(opts.RecordEverySec * 1e6)
	}
	// The scheme registry (internal/exp) resolves the management stack;
	// its unknown-name error enumerates the registered set, so the
	// message can never drift from reality.
	spec, err := exp.GetScheme(string(opts.Scheme))
	if err != nil {
		return Result{}, fmt.Errorf("nextdvfs: %w", err)
	}
	var agent *core.Agent
	if spec.TrainsAgent {
		agent = opts.Agent
		if agent == nil {
			if err := learner.CheckNames(opts.Learner, opts.Explorer); err != nil {
				return Result{}, fmt.Errorf("nextdvfs: %w", err)
			}
			agent = exp.NewDefaultAgent(plat, opts.Seed, opts.Learner, opts.Explorer)
		}
	}
	spec.Configure(&cfg, plat, agent)
	eng, err := sim.New(cfg)
	if err != nil {
		return Result{}, err
	}
	return eng.Run(), nil
}

func timelineFor(opts RunOptions) (*session.Timeline, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	if opts.Fig1Session {
		return session.Fig1Timeline(rng), nil
	}
	app := workload.ByName(opts.App)
	if app == nil {
		return nil, fmt.Errorf("nextdvfs: unknown app %q (see Apps())", opts.App)
	}
	if opts.Seconds > 0 {
		return session.AppTimeline(app, opts.Seconds, opts.Seed), nil
	}
	return session.EvalTimeline(app, rng), nil
}

// Schemes returns the registered management-scheme names — the same
// set Run accepts.
func Schemes() []string { return exp.Schemes() }

// Learners returns the registered TD-update-rule names: the paper's
// "watkins" plus the extension rules (doubleq, sarsa, expected-sarsa,
// nstep). Any of them plugs into Run/TrainAgent via the Learner
// options.
func Learners() []string { return learner.Names() }

// LearnerInfo describes one registered learner for listings.
type LearnerInfo struct {
	Name        string
	Description string
	// Roles are the table roles the learner persists and federates,
	// primary first ("q", or "a"/"b" for doubleq).
	Roles []string
}

// LearnerInfos returns name/description/roles for every registered
// learner, sorted by name.
func LearnerInfos() []LearnerInfo {
	infos := learner.Infos()
	out := make([]LearnerInfo, len(infos))
	for i, in := range infos {
		out[i] = LearnerInfo{Name: in.Name, Description: in.Description, Roles: in.Roles}
	}
	return out
}

// Explorers returns the registered exploration-strategy names
// (egreedy, softmax, ucb).
func Explorers() []string { return learner.ExplorerNames() }

// RunScenario simulates one preset usage scenario (see Scenarios) on
// the chosen platform — shorthand for Run with RunOptions.Scenario set.
func RunScenario(name string, opts RunOptions) (Result, error) {
	opts.Scenario = name
	return Run(opts)
}

// Scenarios returns the preset usage-scenario names: composable
// multi-app sessions (commute, gaming-marathon, doomscroll, …) with
// screen-off stretches, ambient-temperature drift and panel-refresh
// switches.
func Scenarios() []string { return scenario.Names() }

// ScenarioInfo describes one preset scenario for listings.
type ScenarioInfo struct {
	Name        string
	Description string
	Seconds     float64
	Apps        []string
}

// ScenarioInfos returns name/description/duration/apps for every
// preset scenario, sorted by name.
func ScenarioInfos() []ScenarioInfo {
	names := scenario.Names()
	infos := make([]ScenarioInfo, 0, len(names))
	for _, n := range names {
		s := scenario.MustGet(n)
		infos = append(infos, ScenarioInfo{Name: s.Name, Description: s.Description, Seconds: s.DurS(), Apps: s.Apps()})
	}
	return infos
}

// TrainOptions configures TrainAgent.
type TrainOptions struct {
	// Sessions bounds the number of training sessions (0 → 16).
	Sessions int
	// SessionSeconds is each session's length (0 → 150).
	SessionSeconds float64
	// Seed drives training stochasticity.
	Seed int64
	// Config overrides the default agent configuration.
	Config *AgentConfig
	// Platform is a preset device name from Platforms (default "note9").
	Platform string
	// Learner names the TD update rule ("" = watkins; see Learners()).
	Learner string
	// Explorer names the exploration strategy ("" = egreedy; see
	// Explorers()).
	Explorer string
}

// TrainAgent trains a fresh Next agent on the named preset app, exactly
// as the paper trains on a newly installed application, and returns the
// agent plus training statistics.
func TrainAgent(app string, opts TrainOptions) (*Agent, TrainStats, error) {
	if workload.ByName(app) == nil {
		return nil, TrainStats{}, fmt.Errorf("nextdvfs: unknown app %q (see Apps())", app)
	}
	if _, err := platform.Get(opts.Platform); err != nil {
		return nil, TrainStats{}, fmt.Errorf("nextdvfs: %w (see Platforms())", err)
	}
	if err := learner.CheckNames(opts.Learner, opts.Explorer); err != nil {
		return nil, TrainStats{}, fmt.Errorf("nextdvfs: %w", err)
	}
	agent, stats := exp.Train(func() *workload.ProfileApp { return workload.ByName(app) }, exp.TrainOptions{
		MaxSessions: opts.Sessions,
		SessionSecs: opts.SessionSeconds,
		BaseSeed:    opts.Seed,
		AgentConfig: opts.Config,
		Platform:    opts.Platform,
		Learner:     opts.Learner,
		Explorer:    opts.Explorer,
	})
	return agent, stats, nil
}

// TrainAgentOn continues training an existing agent on another app (an
// on-device agent accumulates one Q-table per application).
func TrainAgentOn(agent *Agent, app string, opts TrainOptions) (TrainStats, error) {
	if workload.ByName(app) == nil {
		return TrainStats{}, fmt.Errorf("nextdvfs: unknown app %q (see Apps())", app)
	}
	plat, err := platform.Get(opts.Platform)
	if err != nil {
		return TrainStats{}, fmt.Errorf("nextdvfs: %w (see Platforms())", err)
	}
	if opts.Sessions <= 0 {
		opts.Sessions = 16
	}
	if opts.SessionSeconds <= 0 {
		opts.SessionSeconds = 150
	}
	for i := 1; i <= opts.Sessions; i++ {
		seed := opts.Seed + int64(i)
		cfg := plat.Config(session.AppTimeline(workload.ByName(app), opts.SessionSeconds, seed), seed)
		cfg.Controller = agent
		eng, err := sim.New(cfg)
		if err != nil {
			return TrainStats{}, fmt.Errorf("nextdvfs: %w", err)
		}
		eng.Run()
	}
	stats := TrainStats{App: app, Sessions: opts.Sessions}
	if tab := agent.TableFor(app); tab != nil && tab.Table != nil {
		stats.Converged = tab.Trained
		stats.TrainedUS = tab.Table.TrainedUS
		stats.States = tab.Table.States()
		stats.Steps = tab.Table.Steps
	}
	return stats, nil
}

// NewAgent builds a fresh Next agent.
func NewAgent(cfg AgentConfig) *Agent { return core.NewAgent(cfg) }

// AgentConfigFor returns the paper-default agent configuration adapted
// to the named platform: on fast panels the FPS/target quantizers widen
// to span the refresh rate. Use it to seed agents that will train via
// Run/RunScenario with RunOptions.Agent.
func AgentConfigFor(platformName string) (AgentConfig, error) {
	p, err := platform.Get(platformName)
	if err != nil {
		return AgentConfig{}, fmt.Errorf("nextdvfs: %w (see Platforms())", err)
	}
	return exp.DefaultAgentConfigFor(p), nil
}

// NewFleet builds a federated-training fleet of n fresh devices with
// the paper's cloud cost model.
func NewFleet(n int, cfg AgentConfig) *Fleet {
	devices := make([]*core.Agent, n)
	for i := range devices {
		c := cfg
		c.Seed = cfg.Seed + int64(i+1)*7919
		devices[i] = core.NewAgent(c)
	}
	return &Fleet{Devices: devices, Trainer: cloud.DefaultTrainerConfig()}
}

// FleetServeOptions configures ServeFleet.
type FleetServeOptions struct {
	// Addr is the TCP listen address (default "127.0.0.1:8077";
	// ":0" picks an ephemeral port — read it back from URL()).
	Addr string
	// SnapshotDir, when set, persists every merged policy to disk after
	// each merge round and warm-starts the server from the same
	// directory on the next launch.
	SnapshotDir string
	// Rollout enables the policy lifecycle subsystem: every merge
	// becomes a versioned immutable artifact, new policies ship through
	// a staged canary rollout (1% → 10% → 100% of devices), and the
	// server automatically rolls back candidates whose canary cohort
	// regresses on reported QoS or energy. Zero value = paper defaults.
	Rollout *RolloutConfig
	// MaxDevicesPerKey bounds how many device tables one policy retains
	// (0 → 4096). Raise it on a root that absorbs federated uploads from
	// aggregators fronting more devices than that.
	MaxDevicesPerKey int
}

// RolloutConfig enables the staged-rollout lifecycle. Its zero value is
// the production setup: the stage ramp, canary floor, QoS/energy
// rollback guards and version retention are fixed (docs/operations.md,
// "Fixed limits").
type RolloutConfig = rollout.Config

// FleetServer is a running fleet policy server (Section IV-C as a
// network service): devices check in, upload locally trained Q-tables,
// and download federated-merged policies over HTTP/JSON.
type FleetServer struct {
	inner *fleetd.Server
	http  *http.Server
	ln    net.Listener
}

// ServeFleet starts a fleet policy server listening on opts.Addr and
// returns immediately; the server runs until Close.
func ServeFleet(opts FleetServeOptions) (*FleetServer, error) {
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:8077"
	}
	inner, err := fleetd.NewServer(fleetd.Config{
		SnapshotDir:      opts.SnapshotDir,
		Rollout:          opts.Rollout,
		MaxDevicesPerKey: opts.MaxDevicesPerKey,
	})
	if err != nil {
		return nil, fmt.Errorf("nextdvfs: %w", err)
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("nextdvfs: %w", err)
	}
	hs := &http.Server{Handler: inner.Handler()}
	go hs.Serve(ln)
	return &FleetServer{inner: inner, http: hs, ln: ln}, nil
}

// URL returns the server's base URL (http://host:port).
func (s *FleetServer) URL() string { return "http://" + s.ln.Addr().String() }

// Addr returns the bound listen address.
func (s *FleetServer) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and in-flight request handling.
func (s *FleetServer) Close() error { return s.http.Close() }

// NewFleetClient returns a client for a fleet policy server at baseURL.
func NewFleetClient(baseURL string) *FleetClient { return fleetd.NewClient(baseURL) }

// AggregatorOptions configures ServeAggregator — one edge node of the
// two-tier fleet topology.
type AggregatorOptions struct {
	// Addr is the TCP listen address (default "127.0.0.1:8078";
	// ":0" picks an ephemeral port — read it back from URL()).
	Addr string
	// ID names the aggregator in upstream federation pushes and its own
	// health/metrics pages (default "edge").
	ID string
	// Root is the root fleet server's base URL. Empty runs the edge
	// standalone: devices get locally merged policies and nothing
	// federates upward.
	Root string
	// QueueLimit bounds the upward queue — distinct (policy, device)
	// pairs awaiting federation (0 → 4096). A full queue answers device
	// uploads 429 with Retry-After: explicit backpressure.
	QueueLimit int
	// FlushEvery is the background federation cadence (0 → 500 ms;
	// negative disables the flusher — epochs must drain via POST
	// /v1/flush or Flush).
	FlushEvery time.Duration
}

// AggregatorServer is a running edge aggregator: devices check in,
// upload tables and pull policies against it exactly as they would
// against the root, while it merges locally and federates the raw
// device tables upward in batches.
type AggregatorServer struct {
	inner *aggregator.Server
	http  *http.Server
	ln    net.Listener
}

// ServeAggregator starts an edge aggregator listening on opts.Addr and
// returns immediately; the server (and its background flusher, when
// enabled) runs until Close.
func ServeAggregator(opts AggregatorOptions) (*AggregatorServer, error) {
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:8078"
	}
	inner, err := aggregator.New(aggregator.Config{
		ID:         opts.ID,
		Root:       opts.Root,
		QueueLimit: opts.QueueLimit,
		FlushEvery: opts.FlushEvery,
	})
	if err != nil {
		return nil, fmt.Errorf("nextdvfs: %w", err)
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("nextdvfs: %w", err)
	}
	inner.Start()
	hs := &http.Server{Handler: inner.Handler()}
	go hs.Serve(ln)
	return &AggregatorServer{inner: inner, http: hs, ln: ln}, nil
}

// URL returns the aggregator's base URL (http://host:port).
func (s *AggregatorServer) URL() string { return "http://" + s.ln.Addr().String() }

// Addr returns the bound listen address.
func (s *AggregatorServer) Addr() string { return s.ln.Addr().String() }

// Pending reports how many device tables await upward federation.
func (s *AggregatorServer) Pending() int { return s.inner.Pending() }

// Flush synchronously federates every queued device table to the root
// and returns how many the root accepted.
func (s *AggregatorServer) Flush() (int, error) { return s.inner.Flush() }

// Close stops the background flusher and the listener. Queued uploads
// are not flushed — call Flush first for a clean drain.
func (s *AggregatorServer) Close() error {
	s.inner.Close()
	return s.http.Close()
}

// BenchFleet spins up an in-process fleet policy server on an ephemeral
// port, drives it with a simulated device fleet (training through the
// sim engine, then check-in → upload → merge → policy pull per device)
// and reports the run — the serving benchmark behind
// `nextfleetd -bench N`.
func BenchFleet(opts FleetSimOptions) (FleetSimReport, error) {
	serve := FleetServeOptions{Addr: "127.0.0.1:0"}
	if opts.Rollout != nil {
		serve.Rollout = &RolloutConfig{}
	}
	if opts.Devices > 4096 {
		// The root must retain every device's table for the federated
		// join, whether uploads arrive directly or through aggregators.
		serve.MaxDevicesPerKey = opts.Devices + 1
	}
	srv, err := ServeFleet(serve)
	if err != nil {
		return FleetSimReport{}, err
	}
	defer srv.Close()
	report, err := fleetsim.Run(srv.URL(), opts)
	if err != nil {
		return report, fmt.Errorf("nextdvfs: %w", err)
	}
	return report, nil
}

// Controller is the interface a custom management policy implements to
// plug into Run via sim configuration (advanced use; see internal/ctrl
// for the contract the Next agent itself satisfies).
type Controller = ctrl.Controller

// Capacity-planning workbench types (see internal/plan and
// cmd/nextplan): a Plan declares an SLO and a configuration grid,
// RunPlan sweeps the grid into an append-only JSONL result file, and
// AnalyzePlan judges every cell against the SLO.
type (
	// Plan is one declarative capacity-planning experiment.
	Plan = plan.Plan
	// PlanSLO is the service-level objective cells are judged against.
	PlanSLO = plan.SLO
	// PlanGrid declares the swept configuration axes.
	PlanGrid = plan.Grid
	// PlanRow is one cell's result row.
	PlanRow = plan.Row
	// PlanRunOptions tunes a sweep (worker count, fresh start).
	PlanRunOptions = plan.RunOptions
	// PlanRunReport summarizes one sweep invocation.
	PlanRunReport = plan.RunReport
	// PlanAnalysis is the analyze stage's verdict.
	PlanAnalysis = plan.Analysis
)

// LoadPlan reads and validates a plan file.
func LoadPlan(path string) (*Plan, error) { return plan.Load(path) }

// RunPlan sweeps the plan's grid, appending one result row per cell to
// resultsPath. Completed cells (matched by config hash) are skipped,
// so an interrupted sweep resumes where it stopped and converges to
// the same bytes an uninterrupted sweep produces.
func RunPlan(p *Plan, resultsPath string, opts PlanRunOptions) (PlanRunReport, error) {
	return plan.Run(p, resultsPath, opts)
}

// AnalyzePlan re-reads a sweep's result rows and evaluates every grid
// cell against the plan's SLO: pass/fail per cell, the cheapest
// passing configuration (energy-first, QoS tiebreak) and per-axis
// sensitivity. A results file that does not exist is an error.
func AnalyzePlan(p *Plan, resultsPath string) (*PlanAnalysis, error) {
	rows, err := plan.ReadRows(resultsPath)
	if err != nil {
		return nil, err
	}
	return plan.Analyze(p, rows)
}
