package sim

import (
	"math"
	"math/rand"
	"testing"

	"nextdvfs/internal/governor"
	"nextdvfs/internal/session"
	"nextdvfs/internal/soc"
	"nextdvfs/internal/thermal"
	"nextdvfs/internal/workload"
)

func gameTimeline(seed int64, secs float64) *session.Timeline {
	rng := rand.New(rand.NewSource(seed))
	return &session.Timeline{Scripts: []session.Script{
		session.ForApp(workload.Lineage(), session.Seconds(secs), rng),
	}}
}

func runNote9(t *testing.T, tl *session.Timeline, mutate func(*Config)) Result {
	t.Helper()
	cfg := Note9Config(tl, 1)
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e.Run()
}

func TestConfigValidation(t *testing.T) {
	cfg := Config{}
	if _, err := New(cfg); err == nil {
		t.Fatal("empty config must fail")
	}
	tl := gameTimeline(1, 5)
	good := Note9Config(tl, 1)
	if _, err := New(good); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}

	// Both engines read the big-cluster temperature every tick, so a
	// thermal network without a "big" node must fail at construction,
	// not panic on the first tick.
	noBig := func() Config {
		cfg := Note9Config(gameTimeline(1, 5), 1)
		th := thermal.NewModel(21,
			[]thermal.NodeSpec{{Name: "soc", CapJPerK: 5, GAmbWPerK: 0.1}, {Name: thermal.NodeSkin, CapJPerK: 20, GAmbWPerK: 0.3}},
			[]thermal.Link{{A: "soc", B: thermal.NodeSkin, GWPerK: 0.5}})
		cfg.Thermal = th
		cfg.DevSense = thermal.NewVirtualSensor(th, map[string]float64{thermal.NodeSkin: 0.7, "soc": 0.3})
		return cfg
	}
	if _, err := New(noBig()); err == nil {
		t.Fatal("thermal network without a big node must fail")
	}
	if _, err := NewBatch([]Config{noBig()}); err == nil {
		t.Fatal("batch over a thermal network without a big node must fail")
	}
}

func TestGameSessionReachesHighFPS(t *testing.T) {
	res := runNote9(t, gameTimeline(2, 60), nil)
	if res.ActiveAvgFPS < 40 {
		t.Fatalf("game active FPS = %.1f under schedutil, want >= 40", res.ActiveAvgFPS)
	}
	if res.FramesDisplayed == 0 {
		t.Fatal("no frames displayed")
	}
	if res.DurationS != 60 {
		t.Fatalf("duration = %g", res.DurationS)
	}
}

func TestGameSessionHeatsAndBurnsPower(t *testing.T) {
	res := runNote9(t, gameTimeline(3, 120), nil)
	if res.AvgPowerW < 2 || res.AvgPowerW > 12 {
		t.Fatalf("game avg power = %.2f W, want 2-12 (paper envelope)", res.AvgPowerW)
	}
	if res.PeakTempBigC < 40 {
		t.Fatalf("game peak big temp = %.1f °C, want well above ambient", res.PeakTempBigC)
	}
	if res.PeakTempBigC > 95 {
		t.Fatalf("game peak big temp = %.1f °C, implausible", res.PeakTempBigC)
	}
}

func TestSpotifyIdleFPSNearZeroButPowerHigh(t *testing.T) {
	// Reproduces the Fig. 1 phenomenon: Spotify's FPS collapses while
	// schedutil keeps frequencies (and power) up due to background load.
	rng := rand.New(rand.NewSource(4))
	tl := &session.Timeline{Scripts: []session.Script{
		{App: workload.Spotify(), Phases: []session.Phase{
			{Inter: workload.InterIdle, DurUS: session.Seconds(60)},
		}},
	}}
	_ = rng
	res := runNote9(t, tl, nil)
	if res.AvgFPS > 5 {
		t.Fatalf("idle spotify FPS = %.1f, want ≈0", res.AvgFPS)
	}
	// Power must stay well above the ~1.5 W idle floor: the waste case.
	if res.AvgPowerW < 1.6 {
		t.Fatalf("idle spotify power = %.2f W — background load should keep it higher", res.AvgPowerW)
	}
}

func TestPerformanceVsPowersaveBracketsSchedutil(t *testing.T) {
	tl := gameTimeline(5, 30)
	perf := runNote9(t, gameTimeline(5, 30), func(c *Config) { c.Governor = governor.Performance{} })
	save := runNote9(t, gameTimeline(5, 30), func(c *Config) { c.Governor = governor.Powersave{} })
	sched := runNote9(t, tl, nil)

	if !(perf.AvgPowerW > sched.AvgPowerW) {
		t.Fatalf("performance power (%.2f) should exceed schedutil (%.2f)", perf.AvgPowerW, sched.AvgPowerW)
	}
	if !(save.AvgPowerW < sched.AvgPowerW) {
		t.Fatalf("powersave power (%.2f) should undercut schedutil (%.2f)", save.AvgPowerW, sched.AvgPowerW)
	}
	// And QoS orders the other way for a heavy game.
	if save.ActiveAvgFPS >= perf.ActiveAvgFPS {
		t.Fatalf("powersave FPS (%.1f) should trail performance (%.1f)", save.ActiveAvgFPS, perf.ActiveAvgFPS)
	}
}

func TestDeterminism(t *testing.T) {
	a := runNote9(t, gameTimeline(7, 20), nil)
	b := runNote9(t, gameTimeline(7, 20), nil)
	if a.AvgPowerW != b.AvgPowerW || a.AvgFPS != b.AvgFPS || a.PeakTempBigC != b.PeakTempBigC {
		t.Fatalf("identical seeds diverged: %+v vs %+v", a, b)
	}
}

func TestSeedChangesRun(t *testing.T) {
	a := runNote9(t, gameTimeline(8, 20), func(c *Config) { c.Seed = 1 })
	b := runNote9(t, gameTimeline(8, 20), func(c *Config) { c.Seed = 2 })
	if a.AvgPowerW == b.AvgPowerW && a.AvgFPS == b.AvgFPS {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestFPSNeverExceedsRefresh(t *testing.T) {
	res := runNote9(t, gameTimeline(9, 30), func(c *Config) { c.RecordIntervalUS = 100_000 })
	for _, s := range res.Samples {
		if s.FPS > 60 {
			t.Fatalf("sample at %d µs has FPS %.1f > 60", s.TimeUS, s.FPS)
		}
	}
}

func TestRecorderSamplesCadence(t *testing.T) {
	res := runNote9(t, gameTimeline(10, 10), func(c *Config) { c.RecordIntervalUS = 1_000_000 })
	if len(res.Samples) < 9 || len(res.Samples) > 11 {
		t.Fatalf("samples = %d for 10 s at 1 Hz", len(res.Samples))
	}
	s := res.Samples[0]
	if len(s.FreqKHz) != 3 || len(s.Util) != 3 {
		t.Fatalf("sample cluster arrays wrong: %+v", s)
	}
	if s.App != workload.NameLineage {
		t.Fatalf("sample app = %q", s.App)
	}
}

func TestEnergyMatchesAvgPowerTimesTime(t *testing.T) {
	res := runNote9(t, gameTimeline(11, 15), nil)
	want := res.AvgPowerW * res.DurationS
	if math.Abs(res.EnergyJ-want)/want > 0.01 {
		t.Fatalf("energy %.1f J vs avg*time %.1f J", res.EnergyJ, want)
	}
}

func TestFrequenciesRespectControllerCaps(t *testing.T) {
	// A fixed controller caps big at index 3; schedutil may never exceed.
	capCtl := &fixedCapController{cluster: soc.ClusterBig, idx: 3}
	res := runNote9(t, gameTimeline(12, 20), func(c *Config) {
		c.Controller = capCtl
		c.RecordIntervalUS = 100_000
	})
	chip := soc.Exynos9810()
	maxAllowed := chip.Cluster(soc.ClusterBig).OPPAt(3).FreqKHz
	for _, s := range res.Samples {
		if s.TimeUS < 200_000 {
			continue // before first control tick
		}
		if s.FreqKHz[0] > maxAllowed {
			t.Fatalf("big freq %d exceeds controller cap %d at %d µs", s.FreqKHz[0], maxAllowed, s.TimeUS)
		}
	}
	if res.Scheme != "fixedcap" {
		t.Fatalf("scheme = %q", res.Scheme)
	}
}

func TestDropAccounting(t *testing.T) {
	// Powersave on a heavy game must drop frames; the counters add up.
	res := runNote9(t, gameTimeline(13, 30), func(c *Config) { c.Governor = governor.Powersave{} })
	if res.FramesDropped == 0 {
		t.Fatal("heavy game at min frequency should drop frames")
	}
	if res.FramesDisplayed+res.FramesDropped > res.VSyncs {
		t.Fatal("displayed+dropped exceeds VSyncs")
	}
	if res.DropRate() <= 0 || res.DropRate() > 1 {
		t.Fatalf("drop rate = %g", res.DropRate())
	}
}

func TestAppSwitchResetsRenderer(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	tl := session.Fig1Timeline(rng)
	res := runNote9(t, tl, nil)
	if res.DurationS != 280 {
		t.Fatalf("duration = %g, want 280", res.DurationS)
	}
	if res.FramesDisplayed == 0 {
		t.Fatal("no frames over a 280 s interactive session")
	}
}

func TestSnapshotFaultHookRuns(t *testing.T) {
	called := 0
	ctl := &fixedCapController{cluster: soc.ClusterBig, idx: 5}
	runNote9(t, gameTimeline(15, 5), func(c *Config) {
		c.Controller = ctl
		c.SnapshotFault = func(s *ctrlSnapshotAlias) { called++; s.FPS = -1 }
	})
	if called == 0 {
		t.Fatal("snapshot fault hook never ran")
	}
}
