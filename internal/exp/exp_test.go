package exp

import (
	"math/rand"
	"reflect"
	"testing"

	"nextdvfs/internal/core"
	"nextdvfs/internal/ctrl"
	"nextdvfs/internal/session"
	"nextdvfs/internal/sim"
	"nextdvfs/internal/workload"
)

// Experiment-level tests use reduced budgets: they verify the harness'
// mechanics and the direction of every effect, not the full calibrated
// magnitudes (cmd/nextbench and bench_test.go produce those).

func TestTrainProducesUsableAgent(t *testing.T) {
	agent, stats := Train(workload.Spotify, TrainOptions{
		MaxSessions: 4, SessionSecs: 90, BaseSeed: 5,
	})
	if stats.App != workload.NameSpotify {
		t.Fatalf("stats app = %q", stats.App)
	}
	if stats.Sessions != 4 {
		t.Fatalf("sessions = %d (budget must always run)", stats.Sessions)
	}
	tab := agent.TableFor(workload.NameSpotify)
	if tab == nil || tab.Table == nil || tab.Table.States() == 0 {
		t.Fatal("no Q-table learned")
	}
	if stats.States == 0 || stats.Steps == 0 || stats.TrainedUS == 0 {
		t.Fatalf("stats incomplete: %+v", stats)
	}
}

func TestFig1ProducesPaperPhenomena(t *testing.T) {
	r := Fig1On("note9", 42)
	if r.Result.DurationS != 280 {
		t.Fatalf("session length = %g s, want 280", r.Result.DurationS)
	}
	if len(r.Samples) < 80 {
		t.Fatalf("samples = %d, want ≈93 at 3 s cadence", len(r.Samples))
	}
	// The Spotify stretch must show the waste phenomenon: near-zero FPS
	// with the big cluster well above its floor.
	var spotifySamples, wasteSamples int
	for _, s := range r.Samples {
		if s.App != workload.NameSpotify {
			continue
		}
		spotifySamples++
		if s.FPS < 5 && s.FreqKHz[0] > 1_000_000 {
			wasteSamples++
		}
	}
	if spotifySamples == 0 {
		t.Fatal("no spotify samples")
	}
	if frac := float64(wasteSamples) / float64(spotifySamples); frac < 0.3 {
		t.Fatalf("waste fraction = %.2f — Fig. 1's phenomenon (high freq at ~0 FPS) not reproduced", frac)
	}
}

func TestNextBeatsSchedutilOnSpotify(t *testing.T) {
	agent, _ := Train(workload.Spotify, TrainOptions{
		MaxSessions: 6, SessionSecs: 120, BaseSeed: 11,
	})
	tl := func() *session.Timeline {
		return session.EvalTimeline(workload.Spotify(), rand.New(rand.NewSource(777)))
	}
	sched := runOn(mustNote9(), tl(), 777, nil)
	next := runOn(mustNote9(), tl(), 777, agent)
	if next.AvgPowerW >= sched.AvgPowerW {
		t.Fatalf("Next (%.2f W) must beat schedutil (%.2f W) on the paper's waste case",
			next.AvgPowerW, sched.AvgPowerW)
	}
	// QoS must be approximately preserved on this non-game app.
	if sched.ActiveAvgFPS > 0 && next.ActiveAvgFPS < 0.8*sched.ActiveAvgFPS {
		t.Fatalf("Next QoS collapsed: %.1f vs %.1f FPS", next.ActiveAvgFPS, sched.ActiveAvgFPS)
	}
}

func TestFig4ShapeMatchesPaper(t *testing.T) {
	r := Fig4On("note9", 42)
	var frontier, worst []PPDWPoint
	for _, p := range r.Points {
		if p.Worst {
			worst = append(worst, p)
		} else {
			frontier = append(frontier, p)
		}
	}
	if len(frontier) < 5 {
		t.Fatalf("frontier points = %d", len(frontier))
	}
	// Trend: PPDW at the highest-FPS point beats the lowest-FPS point
	// (the paper's increasing trend).
	lo, hi := frontier[0], frontier[0]
	for _, p := range frontier {
		if p.FPS < lo.FPS {
			lo = p
		}
		if p.PPDW > hi.PPDW {
			hi = p
		}
	}
	if hi.PPDW <= lo.PPDW {
		t.Fatalf("PPDW trend not increasing: lo(fps=%.0f)=%.3f hi=%.3f", lo.FPS, lo.PPDW, hi.PPDW)
	}
	// Worst anchors: tiny, ordered 0 < fps1 < fps10, all below frontier.
	if len(worst) != 3 {
		t.Fatalf("worst anchors = %d, want 3", len(worst))
	}
	if worst[0].PPDW != 0 {
		t.Fatal("FPS 0 worst anchor must be exactly 0 (paper: 0.0000)")
	}
	if !(worst[1].PPDW < worst[2].PPDW && worst[2].PPDW < lo.PPDW) {
		t.Fatalf("worst ordering wrong: %v", worst)
	}
	if !(hi.PPDW > r.Bounds.Worst && hi.PPDW <= r.Bounds.Best) {
		t.Fatalf("best frontier PPDW %.3f outside Eq. 2 bounds [%g, %g]", hi.PPDW, r.Bounds.Worst, r.Bounds.Best)
	}
}

func TestFig6CoverageGrowsWithGranularity(t *testing.T) {
	pts := Fig6(Fig6Options{
		Seed: 3, MaxSessions: 8, SessionSecs: 60,
		Levels: []int{2, 61}, Repeats: 2,
	})
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[1].OnlineS < pts[0].OnlineS {
		t.Fatalf("training time must grow with FPS levels: %v", pts)
	}
	for _, p := range pts {
		if p.CloudS >= p.OnlineS {
			t.Fatalf("cloud must be faster than online: %+v", p)
		}
		// Cloud time includes the ≤4 s comms overhead.
		if p.CloudS < 4 {
			t.Fatalf("cloud time %.1f s below the comms overhead", p.CloudS)
		}
	}
}

// The full figure matrix must not depend on the worker-pool size: the
// tentpole invariant, checked end-to-end through Evaluate.
func TestEvaluateDeterministicAcrossParallelism(t *testing.T) {
	opts := EvalOptions{Seed: 11, MaxSessions: 2, SessionSecs: 30}
	opts.Parallel = 1
	serial := Evaluate(opts)
	opts.Parallel = 8
	parallel := Evaluate(opts)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("Evaluate results depend on the worker-pool size")
	}
}

// Sweeping the evaluation to another registry platform must work and
// produce different absolute numbers than the Note 9.
func TestEvaluateAppOnAlternatePlatform(t *testing.T) {
	opts := EvalOptions{Seed: 9, MaxSessions: 2, SessionSecs: 30}
	note9 := EvaluateApp(workload.NameSpotify, opts, nil)
	opts.Platform = "mid6"
	mid6 := EvaluateApp(workload.NameSpotify, opts, nil)
	if note9.Sched.AvgPowerW == mid6.Sched.AvgPowerW {
		t.Fatal("mid6 reproduced note9 power exactly — platform not applied")
	}
}

func TestEvaluateAppGameIncludesIntQoS(t *testing.T) {
	row := EvaluateApp(workload.NamePubG, EvalOptions{Seed: 9, MaxSessions: 3, SessionSecs: 60}, nil)
	if !row.Game {
		t.Fatal("pubg must be a game")
	}
	if row.IntQoS == nil {
		t.Fatal("games must include the Int. QoS PM comparison")
	}
	if row.Sched.AvgPowerW <= 0 || row.Next.AvgPowerW <= 0 {
		t.Fatal("missing results")
	}
}

func TestEvaluateAppNonGameSkipsIntQoS(t *testing.T) {
	row := EvaluateApp(workload.NameChrome, EvalOptions{Seed: 9, MaxSessions: 3, SessionSecs: 60}, nil)
	if row.Game || row.IntQoS != nil {
		t.Fatal("non-games must not be evaluated under Int. QoS PM")
	}
	if row.IntQoSPowerSavingPct != 0 {
		t.Fatal("IntQoS saving must be zero for non-games")
	}
}

func TestPinControllerPinsOnce(t *testing.T) {
	pin := &pinController{caps: map[string]int{"big": 2}}
	snap := ctrl.Snapshot{Clusters: []ctrl.ClusterView{{Name: "big", NumOPPs: 18}}}
	rec := &recordActuator{}
	pin.Control(snap, rec)
	if rec.pins["big"] != 2 {
		t.Fatal("pin not applied")
	}
	rec2 := &recordActuator{}
	pin.Control(snap, rec2)
	if len(rec2.pins) != 0 {
		t.Fatal("pin must be one-shot")
	}
	pin.Reset()
	rec3 := &recordActuator{}
	pin.Control(snap, rec3)
	if rec3.pins["big"] != 2 {
		t.Fatal("reset must re-arm the pin")
	}
}

type recordActuator struct {
	pins map[string]int
}

func (r *recordActuator) SetCap(string, int)   {}
func (r *recordActuator) SetFloor(string, int) {}
func (r *recordActuator) Pin(c string, i int) {
	if r.pins == nil {
		r.pins = map[string]int{}
	}
	r.pins[c] = i
}

// --- failure injection ---------------------------------------------------

// TestAgentSurvivesSensorDropout injects a stuck big-temperature sensor
// and verifies the agent still runs and produces sane results.
func TestAgentSurvivesSensorDropout(t *testing.T) {
	cfg := core.DefaultAgentConfig()
	cfg.Seed = 13
	agent := core.NewAgent(cfg)
	rng := rand.New(rand.NewSource(13))
	tl := &session.Timeline{Scripts: []session.Script{
		session.ForApp(workload.Facebook(), session.Seconds(60), rng),
	}}
	res := runOn(mustNote9(), tl, 13, agent, func(c *sim.Config) {
		c.SnapshotFault = func(s *ctrl.Snapshot) {
			s.TempBigC = 21 // sensor stuck at ambient
		}
	})
	if res.AvgPowerW <= 0 {
		t.Fatal("run with faulty sensor produced no result")
	}
	tab := agent.TableFor(workload.NameFacebook)
	if tab == nil || tab.Table == nil || tab.Table.Steps == 0 {
		t.Fatal("agent stopped learning under sensor fault")
	}
}

// TestAgentSurvivesFPSJitter injects ±10 FPS measurement noise.
func TestAgentSurvivesFPSJitter(t *testing.T) {
	cfg := core.DefaultAgentConfig()
	cfg.Seed = 17
	agent := core.NewAgent(cfg)
	noise := rand.New(rand.NewSource(99))
	rng := rand.New(rand.NewSource(17))
	tl := &session.Timeline{Scripts: []session.Script{
		session.ForApp(workload.YouTube(), session.Seconds(60), rng),
	}}
	res := runOn(mustNote9(), tl, 17, agent, func(c *sim.Config) {
		c.SnapshotFault = func(s *ctrl.Snapshot) {
			s.FPS += (noise.Float64() - 0.5) * 20
			if s.FPS < 0 {
				s.FPS = 0
			}
		}
	})
	if res.FramesDisplayed == 0 {
		t.Fatal("no frames under FPS jitter")
	}
}

// TestStaleQTableCrossApp runs a Lineage-trained agent on Facebook: the
// agent must fall back to fresh training for the unseen app rather than
// misapplying the game's table.
func TestStaleQTableCrossApp(t *testing.T) {
	agent, _ := Train(workload.Lineage, TrainOptions{MaxSessions: 3, SessionSecs: 60, BaseSeed: 19})
	before := agent.TableFor(workload.NameLineage).Table.Steps

	tl := session.EvalTimeline(workload.Facebook(), rand.New(rand.NewSource(555)))
	res := runOn(mustNote9(), tl, 555, agent)
	if res.AvgPowerW <= 0 {
		t.Fatal("cross-app run failed")
	}
	fb := agent.TableFor(workload.NameFacebook)
	if fb == nil || fb.Table == nil || fb.Table.Steps == 0 {
		t.Fatal("agent did not open a fresh table for the unseen app")
	}
	if agent.TableFor(workload.NameLineage).Table.Steps != before {
		t.Fatal("the game's table must not be touched by another app's session")
	}
}

func TestHighRefreshSupportsFasterPanels(t *testing.T) {
	rows := HighRefreshOn(HighRefreshOptions{Seed: 7})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, hz := range []int{60, 90, 120} {
		r := rows[i]
		if r.RefreshHz != hz {
			t.Fatalf("row %d rate = %d", i, r.RefreshHz)
		}
		// schedutil must actually reach the faster panels' rates.
		if r.Sched.ActiveAvgFPS < 0.75*float64(hz) {
			t.Fatalf("%d Hz panel: schedutil FPS %.1f too low", hz, r.Sched.ActiveAvgFPS)
		}
		if r.Next.AvgPowerW >= r.Sched.AvgPowerW {
			t.Fatalf("%d Hz panel: Next (%.2f W) did not save vs schedutil (%.2f W)",
				hz, r.Next.AvgPowerW, r.Sched.AvgPowerW)
		}
	}
}
