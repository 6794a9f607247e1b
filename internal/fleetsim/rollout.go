package fleetsim

import (
	"fmt"
	"math/rand"
	"time"

	"nextdvfs/internal/batch"
	"nextdvfs/internal/core"
	"nextdvfs/internal/exp"
	"nextdvfs/internal/fleetd"
	"nextdvfs/internal/learner"
	"nextdvfs/internal/platform"
	"nextdvfs/internal/rollout"
	"nextdvfs/internal/session"
	"nextdvfs/internal/workload"
)

// RolloutOptions switches a fleet run into the A/B policy-lifecycle
// mode: two training generations produce a stable artifact and a
// candidate, then the fleet replays deterministic evaluation sessions —
// canary devices on the candidate, control devices on stable — and
// feeds the measured energy/QoS back until the server promotes or rolls
// back.
type RolloutOptions struct {
	// Sabotage degrades the second generation's uploads (every state's
	// greedy action becomes "GPU frequency down", walking the render
	// clock to its floor so race-to-idle is lost) so the canary cohort
	// measurably regresses and the server's evaluator rolls the
	// candidate back. Default off: the candidate is the honestly
	// continued training and promotes.
	Sabotage bool
	// MaxRounds bounds evaluation rounds before giving up undecided
	// (0 → 8).
	MaxRounds int
	// EvalSecs is each evaluation replay's simulated length
	// (0 → SessionSecs).
	EvalSecs float64
}

func (o *RolloutOptions) defaults(opts *Options) {
	if o.MaxRounds <= 0 {
		o.MaxRounds = 8
	}
	if o.EvalSecs <= 0 {
		o.EvalSecs = opts.SessionSecs
	}
}

// RolloutRound is one judged evaluation round of an A/B run.
type RolloutRound struct {
	Round int
	// StageBps is the canary stage that was active while this round's
	// evidence was gathered.
	StageBps uint32
	// Action/Reason echo the server's Decision for the round.
	Action  string
	Reason  string
	Canary  rollout.CohortStats
	Control rollout.CohortStats
}

// RolloutReport summarizes an A/B lifecycle run.
type RolloutReport struct {
	// StableVersion/CandidateVersion are the two artifacts the run
	// minted (generation 1 and 2).
	StableVersion    int64
	CandidateVersion int64
	Rounds           []RolloutRound
	// Outcome is "promote", "rollback", or "undecided" when MaxRounds
	// ran out.
	Outcome string
	// FinalVersion is the stable artifact the whole fleet runs at the
	// end; Rollbacks the server's rollback count.
	FinalVersion int64
	Rollbacks    int64
	// Skipped304 counts policy downloads the ETag/If-None-Match
	// negotiation elided across the evaluation rounds.
	Skipped304 int
}

// runRollout drives the A/B lifecycle against a rollout-enabled fleetd
// server. Determinism: device seeds derive exactly as in plain runs,
// evaluation rounds replay one shared per-round seed across the whole
// fleet (so canary and control trajectories differ only by the policy
// they run), and all traffic is sequential in device order.
func runRollout(baseURL string, opts Options) (Report, error) {
	ro := *opts.Rollout
	ro.defaults(&opts)
	if len(opts.Scenarios) > 0 || opts.Lockstep {
		return Report{}, fmt.Errorf("fleetsim: rollout mode is single-app and scalar (no -scenarios / -lockstep)")
	}
	plat, err := platform.Get(opts.Platform)
	if err != nil {
		return Report{}, fmt.Errorf("fleetsim: %w", err)
	}
	client := fleetd.NewClient(baseURL)
	if _, err := client.Healthz(); err != nil {
		return Report{}, fmt.Errorf("fleetsim: server not reachable: %w", err)
	}

	report := Report{Options: opts, Devices: make([]DeviceResult, opts.Devices)}
	rr := &RolloutReport{}
	report.Rollout = rr
	var requests int64

	// Generation 1 — every device trains and uploads; one merge mints
	// the bootstrap artifact, which promotes straight to stable.
	agents := make([]*core.Agent, opts.Devices)
	trainStart := time.Now()
	batch.Map(opts.Devices, opts.Parallel, func(i int) {
		report.Devices[i] = DeviceResult{Device: deviceName(i)}
		agents[i] = trainDevice(&report.Devices[i], plat, opts, i)
	})
	report.TrainWallS = time.Since(trainStart).Seconds()
	trafficStart := time.Now()
	for i := range agents {
		if agents[i] == nil {
			return report, fmt.Errorf("fleetsim: device %s failed training: %s", deviceName(i), report.Devices[i].Err)
		}
		if _, err := client.Checkin(deviceName(i), opts.Platform); err != nil {
			return report, fmt.Errorf("fleetsim: %w", err)
		}
		if _, err := client.UploadTableSet(deviceName(i), opts.Platform, opts.App, agents[i].SnapshotFor(opts.App), 0); err != nil {
			return report, fmt.Errorf("fleetsim: %w", err)
		}
		requests += 2
	}
	info, err := client.Merge(opts.App, opts.Platform)
	if err != nil {
		return report, fmt.Errorf("fleetsim: bootstrap merge: %w", err)
	}
	requests++
	if info.Version == 0 {
		return report, fmt.Errorf("fleetsim: server did not mint an artifact version — rollout lifecycle not enabled?")
	}
	rr.StableVersion = info.Version

	// Generation 2 — training continues (sessions S+1..2S), so the
	// re-merged fleet table differs and the server mints a candidate.
	// Sabotage corrupts the uploads into a GPU-floor-clock policy.
	trainStart = time.Now()
	batch.Map(opts.Devices, opts.Parallel, func(i int) {
		continueTraining(&report.Devices[i], agents[i], opts, i)
	})
	report.TrainWallS += time.Since(trainStart).Seconds()
	for i := range agents {
		if report.Devices[i].Err != "" {
			return report, fmt.Errorf("fleetsim: device %s failed training: %s", deviceName(i), report.Devices[i].Err)
		}
		up := agents[i].SnapshotFor(opts.App)
		if ro.Sabotage {
			up = sabotageSet(up)
		}
		if _, err := client.UploadTableSet(deviceName(i), opts.Platform, opts.App, up, 0); err != nil {
			return report, fmt.Errorf("fleetsim: %w", err)
		}
		requests++
	}
	info, err = client.Merge(opts.App, opts.Platform)
	if err != nil {
		return report, fmt.Errorf("fleetsim: candidate merge: %w", err)
	}
	requests++
	report.Merge = info
	rr.CandidateVersion = info.Version
	if rr.CandidateVersion == rr.StableVersion {
		return report, fmt.Errorf("fleetsim: generation 2 merged to the same artifact v%d — no candidate to stage", info.Version)
	}

	// Evaluation rounds: every device pulls its cohort's policy (ETag
	// cache in hand), replays the round's shared session on it, and
	// reports the measured energy/QoS; one Advance judges the stage.
	cached := make([]*learner.TableSet, opts.Devices)
	etags := make([]string, opts.Devices)
	for r := 1; r <= ro.MaxRounds; r++ {
		roundSeed := opts.Seed + int64(r)*1_000_003
		for i := range agents {
			set, meta, modified, err := client.PolicyForDevice(deviceName(i), opts.App, opts.Platform, etags[i])
			if err != nil {
				return report, fmt.Errorf("fleetsim: round %d policy pull: %w", r, err)
			}
			requests++
			if modified {
				cached[i], etags[i] = set, meta.ETag
			} else {
				rr.Skipped304++
			}
			res, err := evalPolicy(plat, opts, cached[i], roundSeed, ro.EvalSecs)
			if err != nil {
				return report, fmt.Errorf("fleetsim: round %d eval on %s: %w", r, deviceName(i), err)
			}
			if _, err := client.ReportEval(opts.App, opts.Platform, rollout.EvalReport{
				Device: deviceName(i), Version: meta.Version,
				EnergyJ: res.EnergyJ, QoSFPS: res.ActiveAvgFPS, DurS: ro.EvalSecs,
			}); err != nil {
				return report, fmt.Errorf("fleetsim: round %d report from %s: %w", r, deviceName(i), err)
			}
			requests++
		}
		d, err := client.RolloutAdvance(opts.App, opts.Platform)
		if err != nil {
			return report, fmt.Errorf("fleetsim: round %d advance: %w", r, err)
		}
		requests++
		rr.Rounds = append(rr.Rounds, RolloutRound{
			Round: r, StageBps: stageBefore(d), Action: d.Action, Reason: d.Reason,
			Canary: d.Canary, Control: d.Control,
		})
		if d.Action == "promote" || d.Action == "rollback" {
			rr.Outcome = d.Action
			break
		}
	}
	if rr.Outcome == "" {
		rr.Outcome = "undecided"
	}
	st, err := client.RolloutStatus(opts.App, opts.Platform)
	if err != nil {
		return report, fmt.Errorf("fleetsim: final status: %w", err)
	}
	requests++
	if st.Stable != nil {
		rr.FinalVersion = st.Stable.Version
	}
	rr.Rollbacks = st.Rollbacks
	report.TrafficWallS = time.Since(trafficStart).Seconds()
	report.Requests = requests
	if report.TrafficWallS > 0 {
		report.CheckinsPerSec = float64(opts.Devices) / report.TrafficWallS
		report.RequestsPerSec = float64(report.Requests) / report.TrafficWallS
	}
	pulled, _, err := client.PolicySet(opts.App, opts.Platform)
	if err != nil {
		return report, fmt.Errorf("fleetsim: final policy pull: %w", err)
	}
	merged := pulled.Primary()
	report.Merged = merged
	return report, nil
}

// stageBefore recovers the stage a Decision judged: after an advance
// the status already shows the NEXT stage, so the judged one is in the
// reason; simplest is to report the post-decision stage for advances
// and 0 for terminal actions (the status no longer has a stage).
func stageBefore(d rollout.Decision) uint32 { return d.Status.StageBps }

// continueTraining runs a device's second training generation, sessions
// S+1..2S, on the same agent — the natural "fleet kept learning" path
// that produces a candidate artifact.
func continueTraining(res *DeviceResult, agent *core.Agent, opts Options, i int) {
	devSeed := opts.Seed + int64(i+1)*7919
	for s := opts.Sessions + 1; s <= 2*opts.Sessions; s++ {
		seed := devSeed + int64(s)
		rng := rand.New(rand.NewSource(seed))
		tl := &session.Timeline{Scripts: []session.Script{
			session.ForApp(workload.ByName(opts.App), session.Seconds(opts.SessionSecs), rng),
		}}
		if _, err := exp.RunTimelineOn(opts.Platform, tl, seed, agent); err != nil {
			res.Err = err.Error()
			return
		}
	}
	if tab := agent.TableFor(opts.App); tab != nil && tab.Table != nil {
		res.States = tab.Table.States()
		res.Steps = tab.Table.Steps
		res.Uploaded = tab.Table.Clone()
	}
}

// sabotageSet returns a degraded deep copy of an upload: every state's
// greedy action becomes "frequency down" on the last cluster (the GPU
// on every registered SoC) — the policy walks the GPU cap to its floor
// clock, frames take longer to render, race-to-idle is lost and the
// rest of the chip stays awake longer, so a fleet running the policy
// burns measurably more energy. The candidate the sabotaged uploads
// merge into is what the rollback evaluator must catch.
func sabotageSet(set *learner.TableSet) *learner.TableSet {
	bad := set.Clone()
	for _, role := range bad.Roles {
		for _, row := range role.Table.Q {
			if len(row) < 3 {
				continue
			}
			max := row[0]
			for _, v := range row[1:] {
				if v > max {
					max = v
				}
			}
			// Per-cluster verbs are (up, down, nothing); the last
			// cluster's "down" is the second-to-last action.
			row[len(row)-2] = max + 1
		}
	}
	return bad
}

// evalPolicy replays one deterministic evaluation session on a frozen
// policy: a fresh agent (seeded by the shared round seed, so every
// device's trajectory differs only by the policy it runs) exploits the
// installed table set greedily for EvalSecs simulated seconds.
func evalPolicy(plat platform.Platform, opts Options, set *learner.TableSet, roundSeed int64, evalSecs float64) (res evalResult, err error) {
	cfg := exp.DefaultAgentConfigFor(plat)
	cfg.Seed = roundSeed
	cfg.Learner = opts.Learner
	cfg.Explorer = opts.Explorer
	agent := core.NewAgent(cfg)
	// Clone: the agent's online update keeps learning during the replay
	// and must never write through to the shared cached download.
	agent.InstallTableSet(opts.App, set.Clone(), true)
	rng := rand.New(rand.NewSource(roundSeed))
	tl := &session.Timeline{Scripts: []session.Script{
		session.ForApp(workload.ByName(opts.App), session.Seconds(evalSecs), rng),
	}}
	r, err := exp.RunTimelineOn(opts.Platform, tl, roundSeed, agent)
	if err != nil {
		return evalResult{}, err
	}
	return evalResult{EnergyJ: r.EnergyJ, ActiveAvgFPS: r.ActiveAvgFPS}, nil
}

// evalResult is the slice of sim.Result the lifecycle consumes.
type evalResult struct {
	EnergyJ      float64
	ActiveAvgFPS float64
}
