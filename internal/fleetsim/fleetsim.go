// Package fleetsim drives a fleetd policy server the way a device fleet
// would: N simulated handsets (one goroutine per device, fanned out over
// the internal/batch pool) each train a Next agent through the sim
// engine, check in, upload their visit-weighted Q-table, trigger a
// federated merge round and pull the merged policy back — the full
// Section IV-C loop, closed over a real HTTP API.
//
// The fleet is homogeneous: every device trains the options app on
// the options platform. Every mode (flat, phased epochs, rollout A/B,
// two-tier) builds its devices through one recipe: newDevice seeds a
// fresh agent from the one deviceSeed derivation, trainSessions runs
// session s of device i as the app's timeline at deviceSeed+s on the
// scalar engine, and harvest snapshots the trained table. Each mode
// then differs only in the traffic it drives, and closes its report
// through the same final pull and tally.
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
	"strings"
	"sync/atomic"
	"time"

	"nextdvfs/internal/batch"
	"nextdvfs/internal/core"
	"nextdvfs/internal/exp"
	"nextdvfs/internal/fleetd"
	"nextdvfs/internal/learner"
	"nextdvfs/internal/platform"
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
	// Learner names the TD update rule every device trains with
	// ("" = watkins, the paper's rule). Multi-table learners (doubleq)
	// upload and merge every estimator role-by-role.
	Learner string
	// Rollout, when set, switches the run into the A/B policy-lifecycle
	// mode against a rollout-enabled server: two training generations
	// mint a stable and a candidate artifact, then deterministic
	// evaluation rounds feed cohort energy/QoS back until the server
	// promotes or rolls back. Excludes Epochs > 1.
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
	// uploads (in parallel), ONE merge round runs, and every device
	// pulls and installs the round's policy before training one more
	// session for the next epoch. 0/1 keeps the legacy single-pass
	// traffic unchanged; > 1 requires the phased deterministic loop and
	// excludes Rollout and Aggregators.
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
	// States/Steps describe the locally trained table.
	States int
	Steps  int64
	// Uploaded is a deep copy of the table exactly as uploaded, so
	// callers can serially re-merge the fleet for comparison.
	Uploaded *core.QTable
	// PolicyRound/PolicyStates describe the merged policy the device
	// pulled and installed (the round it happened to observe mid-traffic).
	PolicyRound  int64
	PolicyStates int
}

// Report summarizes a fleet run.
type Report struct {
	Options Options
	Devices []DeviceResult
	Errors  int
	// Merge is the final federated round over every device's table, and
	// Merged the policy it produced.
	Merge  fleetd.MergeInfo
	Merged *core.QTable
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
	if err := learner.CheckNames(opts.Learner, ""); err != nil {
		return Report{}, fmt.Errorf("fleetsim: %w", err)
	}
	plat, err := platform.Get(opts.Platform)
	if err != nil {
		return Report{}, fmt.Errorf("fleetsim: %w", err)
	}
	if opts.Rollout != nil && opts.Aggregators > 0 {
		return Report{}, fmt.Errorf("fleetsim: aggregator tier excludes rollout mode")
	}
	if opts.Epochs > 1 && (opts.Aggregators > 0 || opts.Rollout != nil) {
		return Report{}, fmt.Errorf("fleetsim: epochs > 1 excludes rollout and aggregator tiers")
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

	// Phase 3 — the final round: with every upload in, one more merge is
	// the deterministic fleet table; every device would pull it on its
	// next check-in. A two-tier run reaches the same table through a
	// federation epoch instead of a direct merge.
	var info fleetd.MergeInfo
	if tier != nil {
		if info, err = runEpochPhase(client, tier, &report, &requests, &retries); err != nil {
			return report, err
		}
	} else {
		if info, err = client.Merge(opts.App, opts.Platform); err != nil {
			return report, fmt.Errorf("fleetsim: final merge of %s: %w", opts.App, err)
		}
		requests.Add(1)
	}
	if err := report.pullFinal(client, info, &requests); err != nil {
		return report, err
	}
	report.tally(requests.Load(), 1)
	return report, nil
}

// pullFinal pulls the options app's final merged policy and records it
// as the report's Merged, with info, the round that produced it, as
// its Merge.
func (r *Report) pullFinal(client *fleetd.Client, info fleetd.MergeInfo, requests *atomic.Int64) error {
	app := r.Options.App
	pulled, _, err := client.PolicySet(app, r.Options.Platform)
	if err != nil {
		return fmt.Errorf("fleetsim: final policy pull of %s: %w", app, err)
	}
	requests.Add(1)
	r.Merge = info
	r.Merged = pulled.Primary()
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
	return exp.NewDefaultAgent(plat, deviceSeed(opts, i), opts.Learner, "")
}

// trainSessions runs sessions from..to of device i on its agent, one
// scalar engine each: session s is the options app's timeline for
// SessionSecs at seed deviceSeed+s.
func trainSessions(plat platform.Platform, opts Options, i int, agent *core.Agent, from, to int) error {
	for s := from; s <= to; s++ {
		seed := deviceSeed(opts, i) + int64(s)
		cfg := plat.Config(session.AppTimeline(workload.ByName(opts.App), opts.SessionSecs, seed), seed)
		cfg.Controller = agent
		eng, err := sim.New(cfg)
		if err != nil {
			return err
		}
		eng.Run()
	}
	return nil
}

// harvest snapshots the options app's trained table into res as
// Uploaded and reports whether there was anything to upload (res.Err
// says why not).
func harvest(res *DeviceResult, agent *core.Agent, opts Options) bool {
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

// trainFleet is phase 1 of every mode: each device trains a fresh
// agent on sessions 1..Sessions, independent jobs on the worker pool.
// It returns the agents, nil for devices that failed (recorded in their
// results).
func trainFleet(report *Report, plat platform.Platform) []*core.Agent {
	opts := report.Options
	agents := make([]*core.Agent, opts.Devices)
	start := time.Now()
	batch.Map(opts.Devices, opts.Parallel, func(i int) {
		res := &report.Devices[i]
		agent := newDevice(res, plat, opts, i)
		if err := trainSessions(plat, opts, i, agent, 1, opts.Sessions); err != nil {
			res.Err = err.Error()
		} else if harvest(res, agent, opts) {
			agents[i] = agent
		}
	})
	report.TrainWallS = time.Since(start).Seconds()
	return agents
}

// driveDevice plays one device's HTTP session against the server: check
// in, then upload → merge → policy-pull of the options app.
func driveDevice(res *DeviceResult, client *fleetd.Client, agent *core.Agent, opts Options, requests, retries *atomic.Int64) {
	if res.Err != "" || agent == nil {
		return
	}
	if _, err := client.Checkin(res.Device, opts.Platform); err != nil {
		res.Err = err.Error()
		return
	}
	requests.Add(1)

	// The upload carries the agent's complete learner state (both
	// Double-Q estimators for a doubleq fleet; the plain single-table
	// wire format otherwise).
	app := opts.App
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
