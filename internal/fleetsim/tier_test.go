package fleetsim

import (
	"bytes"
	"strings"
	"testing"

	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
)

// The two-tier acceptance pin: a fleet routed through an edge
// aggregator tier must converge to the same root table, byte for byte,
// as the identical flat run — the aggregators forward raw device
// tables, so the root's federated join sees exactly the flat upload
// set.
func TestTwoTierFleetMatchesFlatRun(t *testing.T) {
	opts := Options{Devices: 24, App: "spotify", Sessions: 2, SessionSecs: 6, Seed: 99, Parallel: 8}

	_, flatURL, flatDone := startServer(t)
	defer flatDone()
	flat, err := Run(flatURL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Errors != 0 {
		t.Fatalf("flat run: %d device errors", flat.Errors)
	}

	tiered := opts
	tiered.Aggregators = 3
	_, rootURL, rootDone := startServer(t)
	defer rootDone()
	report, err := Run(rootURL, tiered)
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 {
		for _, d := range report.Devices {
			if d.Err != "" {
				t.Errorf("%s: %s", d.Device, d.Err)
			}
		}
		t.Fatalf("tiered run: %d device errors", report.Errors)
	}

	f := report.Federation
	if f == nil {
		t.Fatal("two-tier run reported no FederationReport")
	}
	if f.Aggregators != 3 {
		t.Fatalf("FederationReport.Aggregators = %d, want 3", f.Aggregators)
	}
	if f.Flushed != opts.Devices {
		t.Fatalf("epoch flushed %d tables, want %d", f.Flushed, opts.Devices)
	}
	if len(f.Late) != 0 {
		t.Fatalf("in-process epoch had late aggregators: %v", f.Late)
	}
	if report.Merge.Devices != opts.Devices {
		t.Fatalf("root joined %d devices, want %d", report.Merge.Devices, opts.Devices)
	}

	got, err := core.MarshalTableSet(opts.App, learner.SingleTableSet(report.Merged), true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.MarshalTableSet(opts.App, learner.SingleTableSet(flat.Merged), true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("two-tier federated table differs from the flat run's merge")
	}
	if flat.Merged.States() == 0 {
		t.Fatal("degenerate comparison: flat merge has no states")
	}
}

// The tier summary lines appear only for two-tier runs, so the default
// WriteSummary output stays byte-identical for flat fleets.
func TestWriteSummaryFederationLines(t *testing.T) {
	var flatBuf bytes.Buffer
	Report{}.WriteSummary(&flatBuf)
	if strings.Contains(flatBuf.String(), "federation:") {
		t.Fatal("flat summary mentions federation")
	}

	var buf bytes.Buffer
	r := Report{Federation: &FederationReport{Aggregators: 4, Flushed: 64, LocalMerges: 4, Retries429: 2, Late: []string{"agg-003"}}}
	r.WriteSummary(&buf)
	out := buf.String()
	for _, want := range []string{
		"federation: 4 aggregators, 64 tables joined at root, 4 local merges",
		"backpressure retries: 2",
		"late aggregators: agg-003",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q in:\n%s", want, out)
		}
	}
}

func TestAggregatorsExcludesRollout(t *testing.T) {
	_, err := Run("http://127.0.0.1:0", Options{Aggregators: 2, Rollout: &RolloutOptions{}})
	if err == nil || !strings.Contains(err.Error(), "excludes rollout") {
		t.Fatalf("want rollout-exclusion error, got %v", err)
	}
}
