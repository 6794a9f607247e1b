package exp

import (
	"fmt"
	"testing"

	"nextdvfs/internal/core"
	"nextdvfs/internal/golden"
)

const driverGoldenFile = "testdata/golden_drivers.txt"

// appRowHash renders an AppRow with its IntQoS pointer dereferenced:
// %+v would print the pointer's address, not the result.
func appRowHash(r AppRow) string {
	iq := r.IntQoS
	r.IntQoS = nil
	if iq == nil {
		return golden.Hash(r)
	}
	return golden.Hash(fmt.Sprintf("%+v intqos=%+v", r, *iq))
}

// TestGoldenDrivers pins every figure and grid driver, at reduced
// sizes, to the SHA-256 of its %+v output: any change in how a driver
// builds its sessions, agents or grid cells shows up as a hash
// mismatch, and the log then carries the regenerated pin file.
func TestGoldenDrivers(t *testing.T) {
	got := map[string]string{}
	evalOpts := EvalOptions{Seed: 3, MaxSessions: 1, SessionSecs: 20, Parallel: 2}
	for i, r := range Evaluate(evalOpts) {
		got[fmt.Sprintf("evaluate/%d/%s", i, r.App)] = appRowHash(r)
	}
	acfg := core.DefaultAgentConfig()
	acfg.Gamma = 0.8
	got["evaluate-app/spotify"] = appRowHash(EvaluateApp("spotify", evalOpts, nil))
	got["evaluate-app/pubgmobile/gamma0.8"] = appRowHash(EvaluateApp("pubgmobile", evalOpts, &acfg))

	got["fig1/note9"] = golden.Hash(Fig1On("note9", 42))
	got["fig1/sd855-120hz"] = golden.Hash(Fig1On("sd855-120hz", 42))
	got["fig3/note9"] = golden.Hash(Fig3On("note9", 42))
	got["fig4/note9"] = golden.Hash(Fig4On("note9", 42))
	got["fig6/note9"] = golden.Hash(Fig6(Fig6Options{Seed: 5, MaxSessions: 3, SessionSecs: 20, Levels: []int{2, 30}, Repeats: 2, Parallel: 2}))
	got["highrefresh/note9"] = golden.Hash(HighRefreshOn(HighRefreshOptions{Seed: 7, Parallel: 2}))

	lrows, err := LearnerGrid(LearnerGridOptions{Seed: 9, MaxSessions: 1, SessionSecs: 20, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range lrows {
		got["learner-grid/"+r.Learner+"/"+r.App] = golden.Hash(r)
	}

	grows, err := ScenarioGrid(ScenarioOptions{
		Seed: 11, Scenarios: []string{"doomscroll", "cold-start"}, Platforms: []string{"note9", "mid6-90hz"},
		Schemes: []string{"schedutil", "next", "intqospm"}, Learners: []string{"watkins", "doubleq"},
		Parallel: 2, DurationScale: 0.02, TrainSessions: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range grows {
		got[fmt.Sprintf("scenario-grid/%s/%s/%s/%s", r.Scenario, r.Platform, r.Scheme, r.Learner)] = golden.Hash(r)
	}

	srows, err := SeedSweep(SeedSweepOptions{
		Scenario: "doomscroll", Scheme: "next", Seed: 13, Runs: 3,
		Parallel: 2, DurationScale: 0.02, TrainSessions: 1, Lockstep: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range srows {
		got[fmt.Sprintf("seed-sweep/next/%d", r.Seed)] = golden.Hash(r)
	}

	golden.Check(t, driverGoldenFile, `SHA-256 of fmt.Sprintf("%+v") of each driver's rows at the sizes in
TestGoldenDrivers; see internal/golden.`, got)
}
