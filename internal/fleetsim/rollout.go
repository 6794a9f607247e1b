package fleetsim

import (
	"fmt"
	"sync/atomic"
	"time"

	"nextdvfs/internal/batch"
	"nextdvfs/internal/exp"
	"nextdvfs/internal/fleetd"
	"nextdvfs/internal/learner"
	"nextdvfs/internal/platform"
	"nextdvfs/internal/rollout"
	"nextdvfs/internal/session"
	"nextdvfs/internal/sim"
	"nextdvfs/internal/workload"
)

// RolloutOptions switches a fleet run into the A/B policy-lifecycle
// mode: two training generations produce a stable artifact and a
// candidate, then the fleet replays deterministic evaluation sessions —
// canary devices on the candidate, control devices on stable, each
// SessionSecs long — and feeds the measured energy/QoS back until the
// server promotes or rolls back, for at most maxEvalRounds rounds.
type RolloutOptions struct {
	// Sabotage degrades the second generation's uploads (every state's
	// greedy action becomes "GPU frequency down", walking the render
	// clock to its floor so race-to-idle is lost) so the canary cohort
	// measurably regresses and the server's evaluator rolls the
	// candidate back. Default off: the candidate is the honestly
	// continued training and promotes.
	Sabotage bool
}

// maxEvalRounds bounds an A/B run's evaluation rounds before it gives up
// undecided.
const maxEvalRounds = 8

// RolloutRound is one judged evaluation round of an A/B run.
type RolloutRound struct {
	Round int
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
	// Outcome is "promote", "rollback", or "undecided" when
	// maxEvalRounds ran out.
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
func runRollout(client *fleetd.Client, plat platform.Platform, report Report) (Report, error) {
	opts := report.Options
	rr := &RolloutReport{}
	report.Rollout = rr
	var requests atomic.Int64

	// Generation 1 — every device trains and uploads; one merge mints
	// the bootstrap artifact, which promotes straight to stable.
	agents := trainFleet(&report, plat)
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
		requests.Add(2)
	}
	info, err := client.Merge(opts.App, opts.Platform)
	if err != nil {
		return report, fmt.Errorf("fleetsim: bootstrap merge: %w", err)
	}
	requests.Add(1)
	if info.Version == 0 {
		return report, fmt.Errorf("fleetsim: server did not mint an artifact version — rollout lifecycle not enabled?")
	}
	rr.StableVersion = info.Version

	// Generation 2 — training continues (sessions S+1..2S), so the
	// re-merged fleet table differs and the server mints a candidate.
	// Sabotage corrupts the uploads into a GPU-floor-clock policy.
	trainStart := time.Now()
	batch.Map(opts.Devices, opts.Parallel, func(i int) {
		res := &report.Devices[i]
		if err := trainSessions(plat, opts, i, agents[i], opts.Sessions+1, 2*opts.Sessions); err != nil {
			res.Err = err.Error()
		} else {
			harvest(res, agents[i], opts)
		}
	})
	report.TrainWallS += time.Since(trainStart).Seconds()
	for i := range agents {
		if report.Devices[i].Err != "" {
			return report, fmt.Errorf("fleetsim: device %s failed training: %s", deviceName(i), report.Devices[i].Err)
		}
		up := agents[i].SnapshotFor(opts.App)
		if opts.Rollout.Sabotage {
			up = sabotageSet(up)
		}
		if _, err := client.UploadTableSet(deviceName(i), opts.Platform, opts.App, up, 0); err != nil {
			return report, fmt.Errorf("fleetsim: %w", err)
		}
		requests.Add(1)
	}
	info, err = client.Merge(opts.App, opts.Platform)
	if err != nil {
		return report, fmt.Errorf("fleetsim: candidate merge: %w", err)
	}
	requests.Add(1)
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
	for r := 1; r <= maxEvalRounds; r++ {
		roundSeed := opts.Seed + int64(r)*1_000_003
		for i := range agents {
			set, meta, modified, err := client.PolicyForDevice(deviceName(i), opts.App, opts.Platform, etags[i])
			if err != nil {
				return report, fmt.Errorf("fleetsim: round %d policy pull: %w", r, err)
			}
			requests.Add(1)
			if modified {
				cached[i], etags[i] = set, meta.ETag
			} else {
				rr.Skipped304++
			}
			res, err := evalPolicy(plat, opts, cached[i], roundSeed)
			if err != nil {
				return report, fmt.Errorf("fleetsim: round %d eval on %s: %w", r, deviceName(i), err)
			}
			if _, err := client.ReportEval(opts.App, opts.Platform, rollout.EvalReport{
				Device: deviceName(i), Version: meta.Version,
				EnergyJ: res.EnergyJ, QoSFPS: res.ActiveAvgFPS, DurS: opts.SessionSecs,
			}); err != nil {
				return report, fmt.Errorf("fleetsim: round %d report from %s: %w", r, deviceName(i), err)
			}
			requests.Add(1)
		}
		d, err := client.RolloutAdvance(opts.App, opts.Platform)
		if err != nil {
			return report, fmt.Errorf("fleetsim: round %d advance: %w", r, err)
		}
		requests.Add(1)
		rr.Rounds = append(rr.Rounds, RolloutRound{
			Round: r, Action: d.Action, Reason: d.Reason,
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
	requests.Add(1)
	if st.Stable != nil {
		rr.FinalVersion = st.Stable.Version
	}
	rr.Rollbacks = st.Rollbacks
	report.TrafficWallS = time.Since(trafficStart).Seconds()
	// The report counts the lifecycle's traffic; the final pull below
	// only reads back the stable policy.
	report.tally(requests.Load(), 1)
	if err := report.pullFinal(client, report.Merge, &requests); err != nil {
		return report, err
	}
	return report, nil
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
// installed table set greedily for SessionSecs simulated seconds.
func evalPolicy(plat platform.Platform, opts Options, set *learner.TableSet, roundSeed int64) (res evalResult, err error) {
	agent := exp.NewDefaultAgent(plat, roundSeed, opts.Learner, "")
	// Clone: the agent's online update keeps learning during the replay
	// and must never write through to the shared cached download.
	agent.InstallTableSet(opts.App, set.Clone(), true)
	cfg := plat.Config(session.AppTimeline(workload.ByName(opts.App), opts.SessionSecs, roundSeed), roundSeed)
	cfg.Controller = agent
	eng, err := sim.New(cfg)
	if err != nil {
		return evalResult{}, err
	}
	r := eng.Run()
	return evalResult{EnergyJ: r.EnergyJ, ActiveAvgFPS: r.ActiveAvgFPS}, nil
}

// evalResult is the slice of sim.Result the lifecycle consumes.
type evalResult struct {
	EnergyJ      float64
	ActiveAvgFPS float64
}
