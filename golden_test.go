package nextdvfs

import (
	"testing"

	"nextdvfs/internal/golden"
)

// TestGoldenFacade pins the facade's session recipes — single-app,
// Fig. 1 and scenario sessions, fresh and trained agents — to the
// SHA-256 of their %+v output (see internal/golden).
func TestGoldenFacade(t *testing.T) {
	got := map[string]string{}
	run := func(key string, opts RunOptions) {
		t.Helper()
		res, err := Run(opts)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		got["run/"+key] = golden.Hash(res)
	}
	run("app/spotify/default-length", RunOptions{App: "spotify", Seed: 3})
	run("app/chrome/30s", RunOptions{App: "chrome", Seconds: 30, Seed: 4, RecordEverySec: 2})
	run("app/pubgmobile/intqospm/sd855", RunOptions{App: "pubgmobile", Seconds: 30, Seed: 5, Scheme: SchemeIntQoS, Platform: "sd855"})
	run("fig1", RunOptions{Fig1Session: true, Seed: 6})
	run("scenario/commute", RunOptions{Scenario: "commute", Seed: 7})
	run("scenario/doomscroll/40s/mid6-90hz", RunOptions{Scenario: "doomscroll", Seconds: 40, Seed: 8, Platform: "mid6-90hz"})
	run("next/app/lineage2revolution", RunOptions{App: "lineage2revolution", Seconds: 30, Seed: 9, Scheme: SchemeNext})
	run("next/app/spotify/doubleq/softmax", RunOptions{App: "spotify", Seconds: 30, Seed: 10, Scheme: SchemeNext, Learner: "doubleq", Explorer: "softmax"})
	run("next/scenario/cold-start", RunOptions{Scenario: "cold-start", Seconds: 30, Seed: 11, Scheme: SchemeNext})

	agent, stats, err := TrainAgent("facebook", TrainOptions{Sessions: 2, SessionSeconds: 20, Seed: 12, Platform: "note9-90hz", Learner: "sarsa"})
	if err != nil {
		t.Fatal(err)
	}
	got["train/facebook"] = golden.Hash(stats)
	more, err := TrainAgentOn(agent, "youtube", TrainOptions{Sessions: 2, SessionSeconds: 20, Seed: 13, Platform: "note9-90hz"})
	if err != nil {
		t.Fatal(err)
	}
	got["train-on/youtube"] = golden.Hash(more)
	run("next/trained/facebook", RunOptions{App: "facebook", Seconds: 30, Seed: 14, Scheme: SchemeNext, Agent: agent, Platform: "note9-90hz"})
	run("next/trained/youtube", RunOptions{App: "youtube", Seconds: 30, Seed: 15, Scheme: SchemeNext, Agent: agent, Platform: "note9-90hz"})

	golden.Check(t, "testdata/golden_facade.txt", `SHA-256 of fmt.Sprintf("%+v") of each facade result at the sizes in
TestGoldenFacade; see internal/golden.`, got)
}
