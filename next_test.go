package nextdvfs

import (
	"errors"
	"io/fs"
	"path/filepath"
	"sort"
	"testing"
)

func TestAppsLisTSevenPresets(t *testing.T) {
	apps := Apps()
	if len(apps) != 7 {
		t.Fatalf("apps = %d, want 7", len(apps))
	}
}

func TestRunDefaultsToSchedutil(t *testing.T) {
	res, err := Run(RunOptions{App: "home", Seconds: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "schedutil" {
		t.Fatalf("scheme = %q", res.Scheme)
	}
	if res.DurationS != 20 {
		t.Fatalf("duration = %g", res.DurationS)
	}
}

func TestRunUnknownAppAndScheme(t *testing.T) {
	if _, err := Run(RunOptions{App: "tiktok"}); err == nil {
		t.Fatal("unknown app must error")
	}
	if _, err := Run(RunOptions{App: "home", Scheme: "magic"}); err == nil {
		t.Fatal("unknown scheme must error")
	}
}

func TestRunFig1Session(t *testing.T) {
	res, err := Run(RunOptions{Fig1Session: true, Seed: 4, RecordEverySec: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.DurationS != 280 {
		t.Fatalf("duration = %g, want 280", res.DurationS)
	}
	if len(res.Samples) < 80 {
		t.Fatalf("samples = %d", len(res.Samples))
	}
}

func TestRunSchemesAreOrdered(t *testing.T) {
	// performance >= schedutil >= powersave on the same heavy session.
	var p [3]float64
	for i, scheme := range []Scheme{SchemePerformance, SchemeSchedutil, SchemePowersave} {
		res, err := Run(RunOptions{App: "pubgmobile", Seconds: 30, Seed: 5, Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		p[i] = res.AvgPowerW
	}
	if !(p[0] > p[1] && p[1] > p[2]) {
		t.Fatalf("power ordering violated: perf=%.2f sched=%.2f save=%.2f", p[0], p[1], p[2])
	}
}

func TestRunNextWithFreshAgent(t *testing.T) {
	res, err := Run(RunOptions{App: "spotify", Seconds: 30, Seed: 6, Scheme: SchemeNext})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "next" {
		t.Fatalf("scheme = %q", res.Scheme)
	}
}

func TestRunIntQoSOnGame(t *testing.T) {
	res, err := Run(RunOptions{App: "lineage2revolution", Seconds: 30, Seed: 7, Scheme: SchemeIntQoS})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "intqospm" {
		t.Fatalf("scheme = %q", res.Scheme)
	}
}

func TestTrainAgentWorkflow(t *testing.T) {
	agent, stats, err := TrainAgent("youtube", TrainOptions{Sessions: 2, SessionSeconds: 30, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sessions != 2 || agent.TableFor("youtube") == nil {
		t.Fatalf("training incomplete: %+v", stats)
	}
	if _, _, err := TrainAgent("nope", TrainOptions{}); err == nil {
		t.Fatal("unknown app must error")
	}
}

func TestTrainAgentOnAccumulatesApps(t *testing.T) {
	cfg := DefaultAgentConfig()
	cfg.Seed = 9
	agent := NewAgent(cfg)
	for _, app := range []string{"home", "chrome"} {
		if _, err := TrainAgentOn(agent, app, TrainOptions{Sessions: 1, SessionSeconds: 20, Seed: 9}); err != nil {
			t.Fatal(err)
		}
	}
	if len(agent.Apps()) != 2 {
		t.Fatalf("agent apps = %v", agent.Apps())
	}
	if _, err := TrainAgentOn(agent, "nope", TrainOptions{}); err == nil {
		t.Fatal("unknown app must error")
	}
}

func TestNewFleetDistinctSeeds(t *testing.T) {
	fleet := NewFleet(3, DefaultAgentConfig())
	if len(fleet.Devices) != 3 {
		t.Fatalf("devices = %d", len(fleet.Devices))
	}
	if fleet.Trainer.Speedup <= 1 {
		t.Fatal("fleet should use the cloud trainer config")
	}
}

func TestStoreRoundTripThroughFacade(t *testing.T) {
	dir := t.TempDir()
	agent, _, err := TrainAgent("home", TrainOptions{Sessions: 1, SessionSeconds: 20, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	st := Store{Dir: dir}
	if err := st.SaveAgent(agent); err != nil {
		t.Fatal(err)
	}
	reloaded := NewAgent(DefaultAgentConfig())
	if err := st.LoadAgent(reloaded); err != nil {
		t.Fatal(err)
	}
	if reloaded.TableFor("home") == nil {
		t.Fatal("reload lost the table")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := Run(RunOptions{App: "facebook", Seconds: 25, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(RunOptions{App: "facebook", Seconds: 25, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgPowerW != b.AvgPowerW || a.AvgFPS != b.AvgFPS {
		t.Fatal("identical seeds diverged through the facade")
	}
}

func TestPlatformsRegistry(t *testing.T) {
	plats := Platforms()
	if len(plats) < 6 {
		t.Fatalf("platforms = %v", plats)
	}
	infos := PlatformInfos()
	if len(infos) != len(plats) {
		t.Fatalf("infos = %d, platforms = %d", len(infos), len(plats))
	}
	for _, info := range infos {
		if info.Name == "" || info.Description == "" || info.RefreshHz <= 0 {
			t.Fatalf("incomplete info %+v", info)
		}
	}
}

func TestRunOnAlternatePlatforms(t *testing.T) {
	note9, err := Run(RunOptions{App: "pubgmobile", Seconds: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sd, err := Run(RunOptions{App: "pubgmobile", Platform: "sd855", Seconds: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if note9.AvgPowerW == sd.AvgPowerW {
		t.Fatal("different platforms produced identical power")
	}
	if _, err := Run(RunOptions{App: "home", Platform: "nokia3310"}); err == nil {
		t.Fatal("unknown platform must error")
	}
	if _, _, err := TrainAgent("home", TrainOptions{Sessions: 1, SessionSeconds: 10, Platform: "nokia3310"}); err == nil {
		t.Fatal("unknown platform must error in TrainAgent")
	}
}

func TestRunNextOnHighRefreshPlatform(t *testing.T) {
	res, err := Run(RunOptions{App: "lineage2revolution", Platform: "sd855-120hz", Seconds: 20, Seed: 4, Scheme: SchemeNext})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "next" {
		t.Fatalf("scheme = %q", res.Scheme)
	}
}

func TestRunThermalCapScheme(t *testing.T) {
	res, err := Run(RunOptions{App: "lineage2revolution", Seconds: 30, Seed: 14, Scheme: SchemeThermalCap})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "thermalcap" {
		t.Fatalf("scheme = %q", res.Scheme)
	}
}

func TestScenariosListedAndDescribed(t *testing.T) {
	names := Scenarios()
	if len(names) < 8 {
		t.Fatalf("scenario library has %d entries, want ≥ 8", len(names))
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Scenarios() not sorted: %v", names)
	}
	infos := ScenarioInfos()
	if len(infos) != len(names) {
		t.Fatalf("%d infos for %d scenarios", len(infos), len(names))
	}
	for _, info := range infos {
		if info.Description == "" || info.Seconds <= 0 || len(info.Apps) == 0 {
			t.Fatalf("incomplete scenario info: %+v", info)
		}
	}
}

func TestRunScenario(t *testing.T) {
	res, err := RunScenario("commute", RunOptions{Seconds: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.DurationS < 29 || res.DurationS > 31 {
		t.Fatalf("scaled commute ran %.1f s, want ≈30", res.DurationS)
	}
	// Same options, same bytes — the repo-wide determinism contract.
	again, err := RunScenario("commute", RunOptions{Seconds: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgPowerW != again.AvgPowerW || res.EnergyJ != again.EnergyJ {
		t.Fatal("identical scenario runs diverged")
	}
	// The thermal-soak scenario's 35 °C car must show up in the results.
	soak, err := RunScenario("thermal-soak", RunOptions{Seconds: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if soak.PeakTempDevC < res.PeakTempDevC {
		t.Fatalf("thermal-soak device peak %.1f °C below commute's %.1f °C", soak.PeakTempDevC, res.PeakTempDevC)
	}
}

func TestRunScenarioValidation(t *testing.T) {
	if _, err := RunScenario("nope", RunOptions{}); err == nil {
		t.Fatal("unknown scenario should error")
	}
	if _, err := Run(RunOptions{Scenario: "commute", App: "spotify"}); err == nil {
		t.Fatal("Scenario+App should error")
	}
	if _, err := Run(RunOptions{Scenario: "commute", Fig1Session: true}); err == nil {
		t.Fatal("Scenario+Fig1Session should error")
	}
}

func TestRunScenarioUnderNextScheme(t *testing.T) {
	res, err := RunScenario("bursty-messaging", RunOptions{
		Seconds: 30, Seed: 9, Scheme: SchemeNext,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "next" {
		t.Fatalf("scheme = %q", res.Scheme)
	}
}

// AnalyzePlan refuses a results path that does not exist rather than
// judging an empty sweep.
func TestAnalyzePlanRefusesMissingResults(t *testing.T) {
	p := &Plan{Name: "x", Grid: PlanGrid{Scenarios: []string{"doomscroll"}, Platforms: []string{"note9"}, Schemes: []string{"schedutil"}}}
	_, err := AnalyzePlan(p, filepath.Join(t.TempDir(), "typo.jsonl"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("AnalyzePlan of a missing file: err = %v, want fs.ErrNotExist", err)
	}
}
