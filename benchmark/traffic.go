package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"nextdvfs/internal/core"
	"nextdvfs/internal/fleetd"
	"nextdvfs/internal/fleetsim"
	"nextdvfs/internal/learner"
)

// The fleet workloads replay real check-in traffic, not invented
// traffic. Before set-up, fleetsim trains p.Devices spotify@note9 agents
// and runs its phased check-in protocol (fleetsim.Options.Epochs) for
// p.Rounds rounds over the binary wire with delta uploads, against an
// in-process fleetd whose handler records every upload body. Each round
// of that protocol is: every device uploads (the first round also checks
// in), one merge, every device pulls and installs the merged policy and
// trains one more session. The benchmark's round is the same sequence,
// so its request mix, table sizes, delta sizes and which states they
// carry are all fleetsim's.
//
// One consequence shows in the recorded bodies: a device installs the
// merged policy between rounds, so its next delta (diffed against its
// own previous upload) carries nearly every state of the merged table.

// fleetTraffic is one recorded fleetsim run.
type fleetTraffic struct {
	devices []string // fleetsim's device names, in index order
	// bodies[r][d] is device d's upload in round r: the full table in
	// round 0, a delta against its previous upload after that.
	bodies [][][]byte
	// requests counts the recorded run's requests by method and path.
	requests map[string]int
	elapsed  time.Duration
}

// recordTraffic runs fleetsim for the workload's fleet and records it.
func recordTraffic(p Params) (*fleetTraffic, error) {
	srv, err := fleetd.NewServer(fleetd.Config{})
	if err != nil {
		return nil, err
	}
	tr := &fleetTraffic{requests: map[string]int{}}
	byDevice := map[string][][]byte{}
	var mu sync.Mutex
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		tr.requests[r.Method+" "+r.URL.Path]++
		mu.Unlock()
		if r.URL.Path == "/v1/table" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			dev := r.URL.Query().Get("device")
			mu.Lock()
			byDevice[dev] = append(byDevice[dev], body)
			mu.Unlock()
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	start := time.Now()
	rep, err := fleetsim.Run(ts.URL, fleetsim.Options{
		Devices: p.Devices, App: fleetApp, Platform: fleetPlatform, Seed: p.Seed,
		Parallel: fleetConns, Binary: true, DeltaUploads: true, Epochs: p.Rounds,
	})
	if err != nil {
		return nil, fmt.Errorf("recording fleetsim traffic: %w", err)
	}
	tr.elapsed = time.Since(start)
	if rep.Errors > 0 {
		return nil, fmt.Errorf("recording fleetsim traffic: %d devices failed", rep.Errors)
	}
	// The benchmark's round must be fleetsim's: one upload and one pull
	// per device, one merge per round, one check-in per device. The final
	// pull is fleetsim's own check of the merged policy.
	want := map[string]int{
		"GET /healthz": 1, "POST /v1/checkin": p.Devices, "PUT /v1/table": p.Devices * p.Rounds,
		"POST /v1/merge": p.Rounds, "GET /v1/policy": p.Devices*p.Rounds + 1,
	}
	if fmt.Sprint(tr.requests) != fmt.Sprint(want) {
		return nil, fmt.Errorf("fleetsim's round protocol changed: sent %v, the benchmark replays %v", tr.requests, want)
	}
	for name := range byDevice {
		tr.devices = append(tr.devices, name)
	}
	sort.Strings(tr.devices)
	tr.bodies = make([][][]byte, p.Rounds)
	for r := range tr.bodies {
		tr.bodies[r] = make([][]byte, len(tr.devices))
		for d, name := range tr.devices {
			tr.bodies[r][d] = byDevice[name][r]
		}
	}
	return tr, nil
}

// bodyIndex is the recorded round the benchmark's round r replays:
// rounds 0 and 1 are the recorded ones, and later rounds cycle through
// the recorded deltas, each sent against whatever generation the device
// holds.
func (t *fleetTraffic) bodyIndex(r int) int {
	if r == 0 {
		return 0
	}
	return 1 + (r-1)%(len(t.bodies)-1)
}

// body is device d's upload in the benchmark's round r.
func (t *fleetTraffic) body(r, d int) []byte { return t.bodies[t.bodyIndex(r)][d] }

// stateCounts summarizes the recorded tables: states per full upload
// and per delta, each as a mean.
func (t *fleetTraffic) stateCounts() (full, delta float64, err error) {
	var nf, nd, sf, sd float64
	for r, round := range t.bodies {
		for _, b := range round {
			set, err := decodeBody(b)
			if err != nil {
				return 0, 0, err
			}
			if r == 0 {
				sf += float64(set.Primary().States())
				nf++
			} else {
				sd += float64(set.Primary().States())
				nd++
			}
		}
	}
	return sf / max(nf, 1), sd / max(nd, 1), nil
}

func decodeBody(b []byte) (*learner.TableSet, error) {
	_, set, _, err := fleetd.DecodeTableSet(core.TableSetMediaType, b)
	return set, err
}
