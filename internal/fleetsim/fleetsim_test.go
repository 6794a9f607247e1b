package fleetsim

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"nextdvfs/internal/cloud"
	"nextdvfs/internal/core"
	"nextdvfs/internal/fleetd"
	"nextdvfs/internal/learner"
)

func startServer(t *testing.T) (*fleetd.Server, string, func()) {
	t.Helper()
	srv, err := fleetd.NewServer(fleetd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	return srv, ts.URL, ts.Close
}

// The acceptance test of the fleet subsystem: 64 simulated devices
// trained from deterministic seeds drive an in-process fleetd
// concurrently, and the federated table the server converges to is
// byte-identical to a serial cloud.Fleet.MergeApp of the same
// per-device tables.
func TestFleet64DevicesConvergeToSerialMerge(t *testing.T) {
	_, url, done := startServer(t)
	defer done()

	opts := Options{
		Devices:     64,
		App:         "spotify",
		Platform:    "note9",
		Sessions:    1,
		SessionSecs: 6,
		Seed:        42,
		Parallel:    8,
	}
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
	if report.Merge.Devices != 64 {
		t.Fatalf("final merge saw %d devices, want 64", report.Merge.Devices)
	}
	// Every device pulled some merged policy mid-traffic.
	for _, d := range report.Devices {
		if d.PolicyRound == 0 || d.PolicyStates == 0 {
			t.Fatalf("%s never received a policy (round=%d states=%d)", d.Device, d.PolicyRound, d.PolicyStates)
		}
		if d.Uploaded == nil || d.States == 0 {
			t.Fatalf("%s uploaded nothing", d.Device)
		}
	}

	// Serial reference: install the same uploaded tables on a fresh
	// fleet, in device order, and merge the paper's way.
	fleet := &cloud.Fleet{Trainer: cloud.DefaultTrainerConfig()}
	for _, d := range report.Devices {
		a := core.NewAgent(core.DefaultAgentConfig())
		a.InstallTableSet(opts.App, learner.SingleTableSet(d.Uploaded.Clone()), false)
		fleet.Devices = append(fleet.Devices, a)
	}
	serial, _, err := fleet.MergeApp(opts.App)
	if err != nil {
		t.Fatal(err)
	}

	gotJSON, err := core.MarshalTableSet(opts.App, learner.SingleTableSet(report.Merged), true)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := core.MarshalTableSet(opts.App, learner.SingleTableSet(serial), true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatal("concurrent fleet merge differs from serial cloud.Fleet.MergeApp")
	}
	if serial.States() == 0 {
		t.Fatal("degenerate merge: no states")
	}

	// Distinct seeds must produce genuinely different device tables —
	// otherwise the merge proves nothing.
	a, _ := core.MarshalTableSet(opts.App, learner.SingleTableSet(report.Devices[0].Uploaded), false)
	b, _ := core.MarshalTableSet(opts.App, learner.SingleTableSet(report.Devices[1].Uploaded), false)
	if bytes.Equal(a, b) {
		t.Fatal("devices 0 and 1 trained identical tables; seeds not independent")
	}
}

// Two identically-seeded fleet runs against fresh servers must produce
// byte-identical merged tables regardless of traffic interleaving.
func TestFleetRunDeterministic(t *testing.T) {
	opts := Options{Devices: 6, Sessions: 1, SessionSecs: 5, Seed: 7, Parallel: 4}
	var tables [][]byte
	for i := 0; i < 2; i++ {
		_, url, done := startServer(t)
		report, err := Run(url, opts)
		done()
		if err != nil {
			t.Fatal(err)
		}
		if report.Errors != 0 {
			t.Fatalf("run %d: %d device errors", i, report.Errors)
		}
		data, err := core.MarshalTableSet(report.Options.App, learner.SingleTableSet(report.Merged), true)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, data)
	}
	if !bytes.Equal(tables[0], tables[1]) {
		t.Fatal("same seeds, different merged tables")
	}
}

func TestFleetRunServerMetricsSeeTraffic(t *testing.T) {
	srv, url, done := startServer(t)
	defer done()
	report, err := Run(url, Options{Devices: 4, Sessions: 1, SessionSecs: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if report.Requests < int64(4*4+2) {
		t.Fatalf("requests = %d, want at least %d", report.Requests, 4*4+2)
	}
	if got := srv.Metrics().Requests(); got < report.Requests {
		t.Fatalf("server counted %d requests, client sent %d", got, report.Requests)
	}
	count, _, maxUS := srv.Metrics().MergeLatency()
	if count < 5 || maxUS <= 0 {
		t.Fatalf("merge latency summary empty: count=%d max=%d", count, maxUS)
	}
}

func TestFleetRunValidation(t *testing.T) {
	_, url, done := startServer(t)
	defer done()
	if _, err := Run(url, Options{App: "nosuchapp"}); err == nil {
		t.Fatal("unknown app should fail")
	}
	if _, err := Run(url, Options{Platform: "nosuchplat"}); err == nil {
		t.Fatal("unknown platform should fail")
	}
	if _, err := Run("http://127.0.0.1:1", Options{}); err == nil || !strings.Contains(err.Error(), "not reachable") {
		t.Fatal("dead server should fail fast")
	}
}
