// Package fleetsim drives a fleetd policy server the way a device fleet
// would: N simulated handsets (one goroutine per device, fanned out over
// the internal/batch pool) each train a Next agent through the sim
// engine, check in, upload their visit-weighted Q-table, trigger a
// federated merge round and pull the merged policy back — the full
// Section IV-C loop, closed over a real HTTP API.
//
// Every mode (flat, scenario, lockstep, phased epochs, rollout A/B,
// two-tier) builds its devices' sessions through one recipe:
// sessionConfig builds session s of device i (the options app or the
// device's scenario preset, at the one deviceSeed derivation, with an
// optional structural seed a lockstep cohort shares), trainSessions
// runs a session range on the scalar engine, trainCohort hands a
// cohort's configs to sim.NewBatch, and harvest snapshots the trained
// tables. Each mode then differs only in the traffic it drives, and
// closes its report through the same final pull and tally.
//
// Determinism carries through the network: device i trains from its
// own seed (the derivation nextdvfs.NewFleet uses), the server merges
// uploads in sorted-device order, and a final merge after all traffic
// lands on a table byte-identical to a serial cloud.Fleet.MergeApp of
// the same per-device tables — the end-to-end test pins this at 64
// devices.
package fleetsim

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"nextdvfs/internal/batch"
	"nextdvfs/internal/core"
	"nextdvfs/internal/exp"
	"nextdvfs/internal/fleetd"
	"nextdvfs/internal/learner"
	"nextdvfs/internal/platform"
	"nextdvfs/internal/scenario"
	"nextdvfs/internal/session"
	"nextdvfs/internal/sim"
	"nextdvfs/internal/workload"
)

// Options sizes and seeds a fleet run.
type Options struct {
	// Devices is the fleet size (0 → 8).
	Devices int
	// App is the preset application every device trains (0 → spotify).
	App string
	// Platform is the registry device the fleet simulates ("" → note9).
	Platform string
	// Sessions is how many training sessions each device runs (0 → 1).
	Sessions int
	// SessionSecs is each training session's simulated length (0 → 8).
	SessionSecs float64
	// Seed derives per-device seeds (0 → 1).
	Seed int64
	// Parallel sizes the device worker pool (0 → GOMAXPROCS).
	Parallel int
	// Scenarios, when non-empty, assigns heterogeneous usage across the
	// fleet: device i trains on preset Scenarios[i%len] (each session a
	// fresh seed-compiled scenario scaled to SessionSecs) instead of
	// repeated single-app sessions. Every app a device's scenario visits
	// is trained, uploaded and federated per app — merges blend policies
	// learned under different usage, the Section IV-C premise the
	// homogeneous fleet never exercised.
	Scenarios []string
	// Learner names the TD update rule every device trains with
	// ("" = watkins, the paper's rule). Multi-table learners (doubleq)
	// upload and merge every estimator role-by-role.
	Learner string
	// Explorer names the exploration strategy ("" = egreedy).
	Explorer string
	// Lockstep trains each same-scenario device cohort (the whole fleet
	// for homogeneous runs) through one sim.BatchEngine per session
	// round: every device is a lane with its own agent, engine seed and
	// rng streams, while the cohort shares one tick loop and compiled
	// session structure. This is a distinct training mode, not a
	// transparent optimization — lockstep lanes must share session
	// structure, so a cohort's session-s timelines compile from one
	// shared structural seed derived from Options.Seed instead of each
	// device's private seed. Outputs are deterministic but differ from
	// a non-lockstep run of the same options.
	Lockstep bool
	// Rollout, when set, switches the run into the A/B policy-lifecycle
	// mode against a rollout-enabled server: two training generations
	// mint a stable and a candidate artifact, then deterministic
	// evaluation rounds feed cohort energy/QoS back until the server
	// promotes or rolls back. Excludes Scenarios, Lockstep and Epochs > 1.
	Rollout *RolloutOptions
	// Aggregators, when > 0, simulates the two-tier topology: that many
	// in-process edge aggregators are stood up over the root server at
	// baseURL, device i drives aggregator i%N (honoring Retry-After
	// backpressure), and the final round becomes a federation epoch —
	// aggregator-local merges, a flush of the raw device tables upward,
	// then the root's federated join. The root's final table is
	// byte-identical to the flat run's. Excludes Rollout.
	Aggregators int
	// Binary moves the fleet's table traffic to the binary wire codec
	// (application/x-nextdvfs-table uploads, Accept-negotiated policy
	// downloads, NXTF federation envelopes in two-tier runs). Purely a
	// transport choice: the merged tables and the report are identical
	// to a JSON-wire run.
	Binary bool
	// DeltaUploads re-uploads each device's table as a state delta
	// against its previous accepted upload (X-Fleet-Base-Gen protocol),
	// falling back to full uploads automatically on a base mismatch.
	// Only re-uploads shrink — the first upload of any device is always
	// full — so this pays off with Epochs > 1. The merged output is
	// byte-identical to full uploads of the same tables.
	DeltaUploads bool
	// Epochs repeats the check-in cycle: each epoch the whole fleet
	// uploads (in parallel), ONE merge round runs per app, and every
	// device pulls and installs the round's policy before training one
	// more session for the next epoch. 0/1 keeps the legacy single-pass
	// traffic unchanged; > 1 requires the phased deterministic loop and
	// excludes Scenarios, Lockstep, Rollout and Aggregators.
	Epochs int
}

func (o *Options) defaults() {
	if o.Devices <= 0 {
		o.Devices = 8
	}
	if o.App == "" {
		o.App = workload.NameSpotify
	}
	if o.Platform == "" {
		o.Platform = platform.DefaultName
	}
	if o.Sessions <= 0 {
		o.Sessions = 1
	}
	if o.SessionSecs <= 0 {
		o.SessionSecs = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// DeviceResult reports one simulated device's run.
type DeviceResult struct {
	Device string
	Err    string
	// Scenario is the preset the device trained on (scenario fleets).
	Scenario string
	// States/Steps describe the locally trained table(s); for scenario
	// fleets they total across every app the device trained.
	States int
	Steps  int64
	// Uploaded is a deep copy of the table exactly as uploaded, so
	// callers can serially re-merge the fleet for comparison.
	Uploaded *core.QTable
	// Tables are the per-app deep copies a scenario device uploaded.
	Tables map[string]*core.QTable
	// PolicyRound/PolicyStates describe the merged policy the device
	// pulled and installed (the round it happened to observe mid-traffic).
	PolicyRound  int64
	PolicyStates int
}

// AppMerge is the final federated round for one app of a scenario
// fleet, and the policy it produced.
type AppMerge struct {
	App    string
	Merge  fleetd.MergeInfo
	Merged *core.QTable
}

// Report summarizes a fleet run.
type Report struct {
	Options Options
	Devices []DeviceResult
	Errors  int
	// Merge is the final federated round over every device's table, and
	// Merged the policy it produced. For scenario fleets these describe
	// the options' App when any device trained it, else the first app of
	// PerApp.
	Merge  fleetd.MergeInfo
	Merged *core.QTable
	// PerApp lists the final rounds of every app a scenario fleet
	// trained, in sorted app order (empty for single-app fleets).
	PerApp []AppMerge
	// TrainWallS is the wall time of the simulation phase; TrafficWallS
	// covers only the HTTP phase (check-in, upload, merge, policy pull
	// per device), which is what the throughput numbers divide by.
	TrainWallS     float64
	TrafficWallS   float64
	Requests       int64
	CheckinsPerSec float64
	RequestsPerSec float64
	// Rollout carries the A/B lifecycle outcome (nil for plain runs).
	Rollout *RolloutReport
	// Federation carries the two-tier epoch outcome (nil for flat runs).
	Federation *FederationReport
}

// WriteSummary prints the human-readable run report of
// nextfleetd -bench.
func (r Report) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "devices: %d ok, %d failed\n", len(r.Devices)-r.Errors, r.Errors)
	fmt.Fprintf(w, "training: %.2f s wall (simulated sessions, worker pool)\n", r.TrainWallS)
	fmt.Fprintf(w, "traffic:  %.3f s wall, %d requests\n", r.TrafficWallS, r.Requests)
	fmt.Fprintf(w, "  check-in cycles/sec: %.0f\n", r.CheckinsPerSec)
	fmt.Fprintf(w, "  requests/sec:        %.0f\n", r.RequestsPerSec)
	if f := r.Federation; f != nil {
		fmt.Fprintf(w, "federation: %d aggregators, %d tables joined at root, %d local merges\n",
			f.Aggregators, f.Flushed, f.LocalMerges)
		if f.Retries429 > 0 {
			fmt.Fprintf(w, "  backpressure retries: %d\n", f.Retries429)
		}
		if len(f.Late) > 0 {
			fmt.Fprintf(w, "  late aggregators: %s\n", strings.Join(f.Late, ", "))
		}
	}
	fmt.Fprintf(w, "final merge: round %d, %d devices, %d states, %d µs\n",
		r.Merge.Round, r.Merge.Devices, r.Merge.States, r.Merge.LatencyUS)
	for _, am := range r.PerApp {
		fmt.Fprintf(w, "  app %-20s round %d, %d devices, %d states\n",
			am.App, am.Merge.Round, am.Merge.Devices, am.Merge.States)
	}
	for _, d := range r.Devices {
		if d.Err != "" {
			fmt.Fprintf(w, "  %s FAILED: %s\n", d.Device, d.Err)
		}
	}
	if ro := r.Rollout; ro != nil {
		fmt.Fprintf(w, "rollout: stable v%d, candidate v%d → %s (final v%d, rollbacks %d, %d downloads skipped via ETag)\n",
			ro.StableVersion, ro.CandidateVersion, ro.Outcome, ro.FinalVersion, ro.Rollbacks, ro.Skipped304)
		fmt.Fprintf(w, "  %-5s %-9s %12s %12s %12s %12s\n",
			"round", "action", "canary J", "control J", "canary fps", "control fps")
		for _, rd := range ro.Rounds {
			fmt.Fprintf(w, "  %-5d %-9s %12.2f %12.2f %12.2f %12.2f\n",
				rd.Round, rd.Action, rd.Canary.AvgEnergyJ, rd.Control.AvgEnergyJ,
				rd.Canary.AvgQoSFPS, rd.Control.AvgQoSFPS)
			if rd.Action == "rollback" {
				fmt.Fprintf(w, "        %s\n", rd.Reason)
			}
		}
	}
}

// Run trains opts.Devices simulated devices and drives the fleetd
// server at baseURL with the resulting traffic.
func Run(baseURL string, opts Options) (Report, error) {
	opts.defaults()
	if workload.ByName(opts.App) == nil {
		return Report{}, fmt.Errorf("fleetsim: unknown app %q", opts.App)
	}
	for _, sn := range opts.Scenarios {
		if _, err := scenario.Get(sn); err != nil {
			return Report{}, fmt.Errorf("fleetsim: %w", err)
		}
	}
	if err := learner.CheckNames(opts.Learner, opts.Explorer); err != nil {
		return Report{}, fmt.Errorf("fleetsim: %w", err)
	}
	plat, err := platform.Get(opts.Platform)
	if err != nil {
		return Report{}, fmt.Errorf("fleetsim: %w", err)
	}
	if opts.Rollout != nil {
		if opts.Aggregators > 0 {
			return Report{}, fmt.Errorf("fleetsim: aggregator tier excludes rollout mode")
		}
		if len(opts.Scenarios) > 0 || opts.Lockstep {
			return Report{}, fmt.Errorf("fleetsim: rollout mode is single-app and scalar (no -scenarios / -lockstep)")
		}
	}
	if opts.Epochs > 1 && (len(opts.Scenarios) > 0 || opts.Lockstep || opts.Aggregators > 0 || opts.Rollout != nil) {
		return Report{}, fmt.Errorf("fleetsim: epochs > 1 excludes scenarios, lockstep, rollout and aggregator tiers")
	}
	client := fleetd.NewClient(baseURL)
	client.UseBinary = opts.Binary
	if _, err := client.Healthz(); err != nil {
		return Report{}, fmt.Errorf("fleetsim: server not reachable: %w", err)
	}
	report := Report{Options: opts, Devices: make([]DeviceResult, opts.Devices)}
	if opts.Rollout != nil {
		return runRollout(client, plat, report)
	}
	if opts.Epochs > 1 {
		return runPhased(client, plat, report)
	}

	// Phase 1 — simulate: every device trains its own agent on its own
	// sessions.
	agents := trainFleet(&report, plat)

	// Phase 2 — traffic: each device checks in, uploads, requests a
	// merge round and pulls whatever policy that round (or a concurrent
	// one) produced. Merges interleave freely with uploads; the store
	// recomputes every round from the full upload set, so interleaving
	// affects only which intermediate round a device observes. In
	// two-tier mode each device talks to its regional aggregator instead
	// of the root.
	var tier *aggTier
	if opts.Aggregators > 0 {
		tier, err = startAggTier(baseURL, opts)
		if err != nil {
			return report, err
		}
		defer tier.close()
	}
	var requests, retries atomic.Int64
	trafficStart := time.Now()
	batch.Map(opts.Devices, opts.Parallel, func(i int) {
		devClient := client
		if tier != nil {
			devClient = tier.clients[i%len(tier.clients)]
		}
		driveDevice(&report.Devices[i], devClient, agents[i], opts, &requests, &retries)
	})
	report.TrafficWallS = time.Since(trafficStart).Seconds()

	// Phase 3 — the final round: with every upload in, one more merge per
	// app is the deterministic fleet table; every device would pull it on
	// its next check-in. A two-tier run reaches the same table through a
	// federation epoch instead of a direct merge.
	if tier != nil {
		if err := runEpochPhase(client, tier, &report, &requests, &retries); err != nil {
			return report, err
		}
	} else {
		for _, app := range finalApps(&report) {
			info, err := client.Merge(app, opts.Platform)
			if err != nil {
				return report, fmt.Errorf("fleetsim: final merge of %s: %w", app, err)
			}
			requests.Add(1)
			if err := report.pullFinal(client, app, info, &requests); err != nil {
				return report, err
			}
		}
	}
	report.tally(requests.Load(), 1)
	return report, nil
}

// pullFinal pulls app's final merged policy and records it with the
// round that produced it: under PerApp for scenario fleets, and as the
// report's Merge/Merged for the options app (or the first app pulled).
func (r *Report) pullFinal(client *fleetd.Client, app string, info fleetd.MergeInfo, requests *atomic.Int64) error {
	pulled, _, err := client.PolicySet(app, r.Options.Platform)
	if err != nil {
		return fmt.Errorf("fleetsim: final policy pull of %s: %w", app, err)
	}
	requests.Add(1)
	merged := pulled.Primary()
	if len(r.Options.Scenarios) > 0 {
		r.PerApp = append(r.PerApp, AppMerge{App: app, Merge: info, Merged: merged})
	}
	if r.Merged == nil || app == r.Options.App {
		r.Merge = info
		r.Merged = merged
	}
	return nil
}

// tally closes the report: the request total, the failed-device count
// and the traffic-phase rates, where one check-in cycle is one
// upload → merge → pull pass and every healthy device ran cycles.
func (r *Report) tally(requests int64, cycles int) {
	r.Requests = requests
	for _, d := range r.Devices {
		if d.Err != "" {
			r.Errors++
		}
	}
	if r.TrafficWallS > 0 {
		r.CheckinsPerSec = float64((len(r.Devices)-r.Errors)*cycles) / r.TrafficWallS
		r.RequestsPerSec = float64(r.Requests) / r.TrafficWallS
	}
}

// finalApps lists the apps phase 3 merges: the single options app for a
// homogeneous fleet, or the sorted union of every app any scenario
// device uploaded.
func finalApps(report *Report) []string {
	if len(report.Options.Scenarios) == 0 {
		return []string{report.Options.App}
	}
	set := make(map[string]bool)
	for _, d := range report.Devices {
		if d.Err != "" {
			// A failed device may hold tables the server never received
			// (check-in or upload died); merging an app only it trained
			// would abort the run the per-device error already accounts
			// for.
			continue
		}
		for app := range d.Tables {
			set[app] = true
		}
	}
	apps := make([]string, 0, len(set))
	for app := range set {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	return apps
}

// deviceName pads wide enough that lexicographic order (what the
// server merges in) matches index order (what the serial reference
// merges in) for any realistic fleet — float accumulation order is part
// of the byte-identical invariant.
func deviceName(i int) string { return fmt.Sprintf("dev-%08d", i) }

// deviceSeed is device i's private seed: it seeds the device's agent,
// and session s of the device runs at deviceSeed+s.
func deviceSeed(opts Options, i int) int64 { return opts.Seed + int64(i+1)*7919 }

// newDevice resets res for device i and returns the device's fresh
// agent.
func newDevice(res *DeviceResult, plat platform.Platform, opts Options, i int) *core.Agent {
	*res = DeviceResult{Device: deviceName(i)}
	if len(opts.Scenarios) > 0 {
		res.Scenario = opts.Scenarios[i%len(opts.Scenarios)]
	}
	return exp.NewDefaultAgent(plat, deviceSeed(opts, i), opts.Learner, opts.Explorer)
}

// sessionConfig builds training session s of device i under agent: the
// options app for SessionSecs, or the device's scenario preset scaled
// to SessionSecs. The engine always runs at the session's own seed;
// the session's structure (timeline, environment schedules) comes from
// structSeed, which is the same seed for a private session and one
// seed shared by every lane of a lockstep cohort.
func sessionConfig(plat platform.Platform, opts Options, i, s int, structSeed int64, agent *core.Agent) (sim.Config, error) {
	seed := deviceSeed(opts, i) + int64(s)
	var cfg sim.Config
	if len(opts.Scenarios) > 0 {
		scn := scenario.ScaledTo(scenario.MustGet(opts.Scenarios[i%len(opts.Scenarios)]), opts.SessionSecs) // validated in Run
		var err error
		if cfg, err = exp.ScenarioConfig(scn, plat, structSeed, seed); err != nil {
			return sim.Config{}, err
		}
	} else {
		cfg = plat.Config(session.AppTimeline(workload.ByName(opts.App), opts.SessionSecs, structSeed), seed)
	}
	cfg.Controller = agent
	return cfg, nil
}

// trainSessions runs sessions from..to of device i on its agent, one
// scalar engine each.
func trainSessions(plat platform.Platform, opts Options, i int, agent *core.Agent, from, to int) error {
	for s := from; s <= to; s++ {
		cfg, err := sessionConfig(plat, opts, i, s, deviceSeed(opts, i)+int64(s), agent)
		if err != nil {
			return err
		}
		eng, err := sim.New(cfg)
		if err != nil {
			return err
		}
		eng.Run()
	}
	return nil
}

// harvest snapshots what the agent trained into res — the options app's
// table as Uploaded, or every non-empty per-app table of a scenario
// device as Tables — and reports whether there was anything to upload
// (res.Err says why not).
func harvest(res *DeviceResult, agent *core.Agent, opts Options) bool {
	if len(opts.Scenarios) == 0 {
		tab := agent.TableFor(opts.App)
		if tab == nil || tab.Table == nil {
			res.Err = "training produced no table"
			return false
		}
		res.States = tab.Table.States()
		res.Steps = tab.Table.Steps
		res.Uploaded = tab.Table.Clone()
		return true
	}
	res.Tables = make(map[string]*core.QTable)
	for _, app := range agent.Apps() { // sorted
		tab := agent.TableFor(app)
		if tab == nil || tab.Table == nil || tab.Table.States() == 0 {
			continue
		}
		res.Tables[app] = tab.Table.Clone()
		res.States += tab.Table.States()
		res.Steps += tab.Table.Steps
	}
	if len(res.Tables) == 0 {
		res.Err = "scenario training produced no tables"
		return false
	}
	return true
}

// trainFleet is phase 1 of every mode: each device trains a fresh
// agent on sessions 1..Sessions — independent jobs on the worker pool,
// or, with Lockstep, same-scenario cohorts that step one shared tick
// loop per session round. It returns the agents, nil for devices that
// failed (recorded in their results).
func trainFleet(report *Report, plat platform.Platform) []*core.Agent {
	opts := report.Options
	agents := make([]*core.Agent, opts.Devices)
	start := time.Now()
	if opts.Lockstep {
		cohorts := lockstepCohorts(opts)
		batch.Map(len(cohorts), opts.Parallel, func(ci int) {
			trainCohort(report.Devices, agents, plat, opts, cohorts[ci])
		})
	} else {
		batch.Map(opts.Devices, opts.Parallel, func(i int) {
			res := &report.Devices[i]
			agent := newDevice(res, plat, opts, i)
			if err := trainSessions(plat, opts, i, agent, 1, opts.Sessions); err != nil {
				res.Err = err.Error()
			} else if harvest(res, agent, opts) {
				agents[i] = agent
			}
		})
	}
	report.TrainWallS = time.Since(start).Seconds()
	return agents
}

// lockstepCohorts partitions device indices into same-structure groups:
// one cohort per scenario preset (the devices i sharing i mod
// len(Scenarios)), or the whole fleet for homogeneous runs.
func lockstepCohorts(opts Options) [][]int {
	if len(opts.Scenarios) == 0 {
		all := make([]int, opts.Devices)
		for i := range all {
			all[i] = i
		}
		return [][]int{all}
	}
	n := len(opts.Scenarios)
	cohorts := make([][]int, 0, n)
	for c := 0; c < n && c < opts.Devices; c++ {
		var devs []int
		for i := c; i < opts.Devices; i += n {
			devs = append(devs, i)
		}
		cohorts = append(cohorts, devs)
	}
	return cohorts
}

// trainCohort runs one lockstep cohort's training: per session round,
// every device is a lane of one BatchEngine — own agent (as the lane's
// controller), own engine seed, shared compiled session structure from
// the round's structural seed.
func trainCohort(devices []DeviceResult, agents []*core.Agent, plat platform.Platform, opts Options, devs []int) {
	laneAgents := make([]*core.Agent, len(devs))
	for r, i := range devs {
		laneAgents[r] = newDevice(&devices[i], plat, opts, i)
	}
	for s := 1; s <= opts.Sessions; s++ {
		structSeed := opts.Seed + int64(s)*9973
		cfgs := make([]sim.Config, len(devs))
		for r, i := range devs {
			cfg, err := sessionConfig(plat, opts, i, s, structSeed, laneAgents[r])
			if err != nil {
				failCohort(devices, devs, err)
				return
			}
			cfgs[r] = cfg
		}
		// Every lane compiles the same session structure, so NewBatch
		// rejects a cohort only for the reasons sim.New would.
		be, err := sim.NewBatch(cfgs)
		if err != nil {
			failCohort(devices, devs, err)
			return
		}
		be.Run()
	}
	for r, i := range devs {
		if harvest(&devices[i], laneAgents[r], opts) {
			agents[i] = laneAgents[r]
		}
	}
}

func failCohort(devices []DeviceResult, devs []int, err error) {
	for _, i := range devs {
		devices[i].Err = err.Error()
	}
}

// driveDevice plays one device's HTTP session against the server: check
// in, then upload → merge → policy-pull for each app it trained (one
// app for homogeneous fleets, every scenario app otherwise).
func driveDevice(res *DeviceResult, client *fleetd.Client, agent *core.Agent, opts Options, requests, retries *atomic.Int64) {
	if res.Err != "" || agent == nil {
		return
	}
	if _, err := client.Checkin(res.Device, opts.Platform); err != nil {
		res.Err = err.Error()
		return
	}
	requests.Add(1)

	apps := []string{opts.App}
	if len(res.Tables) > 0 {
		apps = apps[:0]
		for app := range res.Tables {
			apps = append(apps, app)
		}
		sort.Strings(apps)
	}
	for _, app := range apps {
		// The upload carries the agent's complete learner state (both
		// Double-Q estimators for a doubleq fleet; the plain single-table
		// wire format otherwise).
		if _, err := uploadWithBackpressure(client, res.Device, opts.Platform, app, agent.SnapshotFor(app), retries); err != nil {
			res.Err = err.Error()
			return
		}
		requests.Add(1)
		if _, err := client.Merge(app, opts.Platform); err != nil {
			res.Err = err.Error()
			return
		}
		requests.Add(1)
		policy, round, err := client.PolicySet(app, opts.Platform)
		if err != nil {
			res.Err = err.Error()
			return
		}
		requests.Add(1)
		agent.InstallTableSet(app, policy, true)
		res.PolicyRound = round
		res.PolicyStates = policy.Primary().States()
	}
}
