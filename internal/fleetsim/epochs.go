package fleetsim

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"nextdvfs/internal/batch"
	"nextdvfs/internal/core"
	"nextdvfs/internal/exp"
	"nextdvfs/internal/fleetd"
	"nextdvfs/internal/platform"
	"nextdvfs/internal/session"
	"nextdvfs/internal/workload"
)

// runPhased is the Epochs > 1 traffic shape: the repeated federated
// check-in cycle of Section IV-C run as deterministic phases. Per
// epoch the whole fleet uploads in parallel, exactly one merge round
// runs, and every device pulls and installs that round's policy —
// barriers between phases, so every device observes the same round
// and the run's output is a function of the options alone, regardless
// of upload arrival order. Between epochs each device trains one more
// session (continuing its session-seed sequence) on top of the
// installed policy, which is what makes re-uploads incremental and
// gives DeltaUploads real deltas to ship.
func runPhased(client *fleetd.Client, plat platform.Platform, opts Options) (Report, error) {
	report := Report{Options: opts, Devices: make([]DeviceResult, opts.Devices)}
	agents := make([]*core.Agent, opts.Devices)
	trainStart := time.Now()
	batch.Map(opts.Devices, opts.Parallel, func(i int) {
		report.Devices[i] = DeviceResult{Device: deviceName(i)}
		agents[i] = trainDevice(&report.Devices[i], plat, opts, i)
	})
	trainWall := time.Since(trainStart)

	var uploaders []*fleetd.DeltaUploader
	if opts.DeltaUploads {
		uploaders = make([]*fleetd.DeltaUploader, opts.Devices)
		for i := range uploaders {
			uploaders[i] = client.NewDeltaUploader(deviceName(i), opts.Platform, opts.App)
		}
	}

	var requests atomic.Int64
	var trafficWall time.Duration
	for e := 1; e <= opts.Epochs; e++ {
		if e > 1 {
			ts := time.Now()
			batch.Map(opts.Devices, opts.Parallel, func(i int) {
				trainOneSession(&report.Devices[i], agents[i], opts, i, opts.Sessions+e-1)
			})
			trainWall += time.Since(ts)
		}

		ts := time.Now()
		// Upload phase (first epoch also checks in).
		batch.Map(opts.Devices, opts.Parallel, func(i int) {
			d := &report.Devices[i]
			if d.Err != "" || agents[i] == nil {
				return
			}
			if e == 1 {
				if _, err := client.Checkin(d.Device, opts.Platform); err != nil {
					d.Err = err.Error()
					return
				}
				requests.Add(1)
			}
			set := agents[i].SnapshotFor(opts.App)
			var err error
			if uploaders != nil {
				_, err = uploaders[i].Upload(set)
			} else {
				_, err = client.UploadTableSet(d.Device, opts.Platform, opts.App, set, 0)
			}
			if err != nil {
				d.Err = err.Error()
				return
			}
			requests.Add(1)
			d.States = set.Primary().States()
			d.Steps = set.Primary().Steps
			d.Uploaded = set.Primary().Clone()
		})

		// One merge round per epoch — the server-side work the
		// incremental merge path keeps O(changed state).
		info, err := client.Merge(opts.App, opts.Platform)
		if err != nil {
			return report, fmt.Errorf("fleetsim: epoch %d merge: %w", e, err)
		}
		requests.Add(1)
		report.Merge = info

		// Pull phase: every device installs this round's policy.
		batch.Map(opts.Devices, opts.Parallel, func(i int) {
			d := &report.Devices[i]
			if d.Err != "" || agents[i] == nil {
				return
			}
			policy, round, err := client.PolicySet(opts.App, opts.Platform)
			if err != nil {
				d.Err = err.Error()
				return
			}
			requests.Add(1)
			agents[i].InstallTableSet(opts.App, policy, true)
			d.PolicyRound = round
			d.PolicyStates = policy.Primary().States()
		})
		trafficWall += time.Since(ts)
	}

	pulled, _, err := client.PolicySet(opts.App, opts.Platform)
	if err != nil {
		return report, fmt.Errorf("fleetsim: final policy pull: %w", err)
	}
	merged := pulled.Primary()
	requests.Add(1)
	report.Merged = merged

	report.TrainWallS = trainWall.Seconds()
	report.TrafficWallS = trafficWall.Seconds()
	report.Requests = requests.Load()
	for _, d := range report.Devices {
		if d.Err != "" {
			report.Errors++
		}
	}
	if report.TrafficWallS > 0 {
		// One check-in cycle = one upload→merge→pull pass per device.
		report.CheckinsPerSec = float64((opts.Devices-report.Errors)*opts.Epochs) / report.TrafficWallS
		report.RequestsPerSec = float64(report.Requests) / report.TrafficWallS
	}
	return report, nil
}

// trainOneSession continues a device's session-seed sequence by one
// more session — the same derivation trainDevice uses, so epoch e
// trains session Sessions+e-1 exactly as a longer -sessions run would.
func trainOneSession(res *DeviceResult, agent *core.Agent, opts Options, i, s int) {
	if res.Err != "" || agent == nil {
		return
	}
	devSeed := opts.Seed + int64(i+1)*7919
	seed := devSeed + int64(s)
	rng := rand.New(rand.NewSource(seed))
	tl := &session.Timeline{Scripts: []session.Script{
		session.ForApp(workload.ByName(opts.App), session.Seconds(opts.SessionSecs), rng),
	}}
	if _, err := exp.RunTimelineOn(opts.Platform, tl, seed, agent); err != nil {
		res.Err = err.Error()
	}
}
