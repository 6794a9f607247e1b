package fleetsim

import (
	"fmt"
	"sync/atomic"
	"time"

	"nextdvfs/internal/batch"
	"nextdvfs/internal/fleetd"
	"nextdvfs/internal/platform"
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
func runPhased(client *fleetd.Client, plat platform.Platform, report Report) (Report, error) {
	opts := report.Options
	agents := trainFleet(&report, plat)
	trainWall := report.TrainWallS

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
			// Each epoch continues every device's session-seed sequence
			// by one session, exactly as a longer -sessions run would.
			ts := time.Now()
			s := opts.Sessions + e - 1
			batch.Map(opts.Devices, opts.Parallel, func(i int) {
				d := &report.Devices[i]
				if d.Err != "" || agents[i] == nil {
					return
				}
				if err := trainSessions(plat, opts, i, agents[i], s, s); err != nil {
					d.Err = err.Error()
				}
			})
			trainWall += time.Since(ts).Seconds()
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

	if err := report.pullFinal(client, report.Merge, &requests); err != nil {
		return report, err
	}
	report.TrainWallS = trainWall
	report.TrafficWallS = trafficWall.Seconds()
	report.tally(requests.Load(), opts.Epochs)
	return report, nil
}
