package fleetsim

import (
	"fmt"
	"strings"
	"testing"

	"nextdvfs/internal/core"
	"nextdvfs/internal/golden"
	"nextdvfs/internal/learner"
)

// fleetFingerprint renders the deterministic part of a report: the
// final merged policy, every device's uploaded table, the merge
// device/state counts and the rollout rounds and outcome. Wall-clock
// fields and merge latencies are left out, and so is the mid-traffic
// policy round of unphased runs, which depends on request interleaving.
func fleetFingerprint(t *testing.T, rep Report, phased bool) string {
	t.Helper()
	var sb strings.Builder
	table := func(app string, q *core.QTable) {
		if q == nil {
			sb.WriteString(" <nil>\n")
			return
		}
		data, err := core.MarshalTableSet(app, learner.SingleTableSet(q), true)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, " %s\n", golden.Hash(string(data)))
	}
	fmt.Fprintf(&sb, "errors=%d merge devices=%d states=%d merged:", rep.Errors, rep.Merge.Devices, rep.Merge.States)
	table(rep.Options.App, rep.Merged)
	for _, d := range rep.Devices {
		// The empty scenario= field keeps the pinned byte format.
		fmt.Fprintf(&sb, "%s err=%q scenario= states=%d steps=%d", d.Device, d.Err, d.States, d.Steps)
		if phased {
			fmt.Fprintf(&sb, " policy round=%d states=%d", d.PolicyRound, d.PolicyStates)
		}
		sb.WriteString(" uploaded:")
		table(rep.Options.App, d.Uploaded)
	}
	if ro := rep.Rollout; ro != nil {
		fmt.Fprintf(&sb, "rollout stable=%d candidate=%d outcome=%s final=%d rollbacks=%d skipped=%d\n",
			ro.StableVersion, ro.CandidateVersion, ro.Outcome, ro.FinalVersion, ro.Rollbacks, ro.Skipped304)
		for _, rd := range ro.Rounds {
			fmt.Fprintf(&sb, "round %d %s %q canary=%+v control=%+v\n", rd.Round, rd.Action, rd.Reason, rd.Canary, rd.Control)
		}
	}
	if f := rep.Federation; f != nil {
		fmt.Fprintf(&sb, "federation aggregators=%d flushed=%d late=%v\n", f.Aggregators, f.Flushed, f.Late)
	}
	return golden.Hash(sb.String())
}

// TestGoldenFleetModes pins every fleetsim mode — flat, phased epochs
// over the binary wire with deltas, rollout promote and sabotage, and
// the two-aggregator tier — to the hash of its deterministic report
// fields.
func TestGoldenFleetModes(t *testing.T) {
	modes := []struct {
		name    string
		opts    Options
		rollout bool
	}{
		{name: "flat", opts: Options{Devices: 4, Sessions: 2, SessionSecs: 5, Seed: 3, Parallel: 2}},
		{name: "epochs3-binary-delta", opts: Options{Devices: 3, Sessions: 1, SessionSecs: 5, Seed: 13, Parallel: 2,
			Epochs: 3, Binary: true, DeltaUploads: true}},
		{name: "rollout-promote", opts: abOptions(false), rollout: true},
		{name: "rollout-sabotage", opts: abOptions(true), rollout: true},
		{name: "aggregators2", opts: Options{Devices: 4, Sessions: 1, SessionSecs: 5, Seed: 17, Parallel: 2, Aggregators: 2}},
	}
	got := map[string]string{}
	for _, m := range modes {
		var url string
		var done func()
		if m.rollout {
			url, done = newRolloutServer(t)
		} else {
			_, url, done = startServer(t)
		}
		rep, err := Run(url, m.opts)
		done()
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		got["fleet/"+m.name] = fleetFingerprint(t, rep, m.opts.Epochs > 1)
	}
	golden.Check(t, "testdata/golden_fleet.txt", `SHA-256 of the deterministic report fields of each fleetsim mode at the
sizes in TestGoldenFleetModes; see fleetFingerprint and internal/golden.`, got)
}
