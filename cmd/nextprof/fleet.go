package main

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"

	"nextdvfs/internal/core"
	"nextdvfs/internal/fleetd"
	"nextdvfs/internal/learner"
)

func fatalFleet(err error) {
	fmt.Fprintln(os.Stderr, "nextprof:", err)
	os.Exit(1)
}

// buildFleetWorkload wires the fleet check-in cycle under the
// profiler: an in-process fleetd with N registered devices, and per
// iteration every device perturbs one state of its table, re-uploads
// it (as an X-Fleet-Base-Gen delta or a full table, over the binary or
// JSON wire), one federated merge round runs, and one merged policy is
// pulled. With deltas on, that is exactly the O(changed state) cycle
// the incremental merge path serves; -fleet-delta=false -fleet-wire
// json reproduces the legacy O(fleet) cycle for comparison.
func buildFleetWorkload(devices int, wire string, delta bool, seed int64) (func(), string, error) {
	var binary bool
	switch wire {
	case "binary":
		binary = true
	case "json":
	default:
		return nil, "", fmt.Errorf("unknown -fleet-wire %q (want binary or json)", wire)
	}

	srv, err := fleetd.NewServer(fleetd.Config{MaxDevicesPerKey: devices + 1})
	if err != nil {
		return nil, "", err
	}
	ts := httptest.NewServer(srv.Handler())
	client := fleetd.NewClient(ts.URL)
	client.UseBinary = binary

	const app, plat = "spotify", "note9"
	rng := rand.New(rand.NewSource(seed))
	sets := make([]*core.TableSet, devices)
	uploaders := make([]*fleetd.DeltaUploader, devices)
	for d := 0; d < devices; d++ {
		device := fmt.Sprintf("dev-%05d", d)
		t := core.NewQTable(9)
		for s := 0; s < 64; s++ {
			row := make([]float64, 9)
			for a := range row {
				row[a] = rng.NormFloat64()
			}
			t.Q[core.StateKey(s)] = row
			t.Visits[core.StateKey(s)] = rng.Intn(200) + 1
		}
		sets[d] = learner.SingleTableSet(t)
		if delta {
			uploaders[d] = client.NewDeltaUploader(device, plat, app)
			if _, err := uploaders[d].Upload(sets[d]); err != nil {
				return nil, "", err
			}
		} else if _, err := client.UploadTableSet(device, plat, app, sets[d], 0); err != nil {
			return nil, "", err
		}
	}
	if _, err := client.Merge(app, plat); err != nil {
		return nil, "", err
	}

	mode := "full"
	if delta {
		mode = "delta"
	}
	desc := fmt.Sprintf("fleet check-in cycle: %d devices, %s wire, %s uploads (seed %d)",
		devices, wire, mode, seed)
	iter := 0
	return func() {
		iter++
		for d := 0; d < devices; d++ {
			t := sets[d].Primary()
			k := core.StateKey((iter + d) % 64)
			t.Q[k][iter%9] += 0.001
			t.Visits[k]++
			t.Steps++
			var err error
			if delta {
				_, err = uploaders[d].Upload(sets[d])
			} else {
				_, err = client.UploadTableSet(fmt.Sprintf("dev-%05d", d), plat, app, sets[d], 0)
			}
			if err != nil {
				fatalFleet(err)
			}
		}
		if _, err := client.Merge(app, plat); err != nil {
			fatalFleet(err)
		}
		if _, _, err := client.PolicySet(app, plat); err != nil {
			fatalFleet(err)
		}
	}, desc, nil
}
