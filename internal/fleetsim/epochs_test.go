package fleetsim

import (
	"bytes"
	"testing"

	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
)

// runEpochs runs a phased fleet against a fresh server and returns the
// report plus the canonical bytes of its merged table.
func runEpochs(t *testing.T, opts Options) (Report, []byte) {
	t.Helper()
	_, url, done := startServer(t)
	defer done()
	report, err := Run(url, opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 {
		for _, d := range report.Devices {
			if d.Err != "" {
				t.Errorf("%s: %s", d.Device, d.Err)
			}
		}
		t.Fatalf("%d devices failed", report.Errors)
	}
	data, err := core.MarshalTableSet(report.Options.App, learner.SingleTableSet(report.Merged), true)
	if err != nil {
		t.Fatal(err)
	}
	return report, data
}

// The transport pin for the whole tentpole: delta uploads and the
// binary wire codec are transport optimizations only. The same seeds
// through full-JSON, full-binary, and delta check-in cycles must leave
// the server with byte-identical merged policies.
func TestFleetEpochsTransportInvariant(t *testing.T) {
	base := Options{Devices: 5, Sessions: 1, SessionSecs: 5, Seed: 11, Parallel: 4, Epochs: 3}

	full := base
	_, fullBytes := runEpochs(t, full)

	delta := base
	delta.DeltaUploads = true
	deltaRep, deltaBytes := runEpochs(t, delta)

	bin := base
	bin.Binary = true
	bin.DeltaUploads = true
	_, binBytes := runEpochs(t, bin)

	if !bytes.Equal(fullBytes, deltaBytes) {
		t.Fatal("delta check-in cycle produced a different merged policy than full uploads")
	}
	if !bytes.Equal(fullBytes, binBytes) {
		t.Fatal("binary+delta check-in cycle produced a different merged policy than JSON full uploads")
	}
	// Every epoch re-merged: the final round advances with the epochs.
	if deltaRep.Merge.Round < 3 {
		t.Fatalf("final merge round %d, want >= 3 after 3 epochs", deltaRep.Merge.Round)
	}
}

// Phased runs are deterministic: identical options, fresh servers,
// byte-identical merged tables — the property every other fleetsim
// mode pins, extended to the epoch loop.
func TestFleetEpochsDeterministic(t *testing.T) {
	opts := Options{Devices: 4, Sessions: 1, SessionSecs: 5, Seed: 19, Parallel: 3,
		Epochs: 2, DeltaUploads: true, Binary: true}
	_, a := runEpochs(t, opts)
	_, b := runEpochs(t, opts)
	if !bytes.Equal(a, b) {
		t.Fatal("same seeds, different merged tables in phased mode")
	}
}

// The phased loop refuses option combinations it does not model.
func TestFleetEpochsValidation(t *testing.T) {
	_, url, done := startServer(t)
	defer done()
	if _, err := Run(url, Options{Devices: 2, Sessions: 1, SessionSecs: 5, Epochs: 2, Aggregators: 2}); err == nil {
		t.Fatal("epochs+aggregators accepted")
	}
}
