// Command nextsim runs a single simulated session on a registry
// platform (the Note 9 by default) and prints (or saves) its trace —
// the quick way to eyeball a governor's behaviour on one workload.
//
// Usage:
//
//	nextsim -app spotify -scheme schedutil -seconds 120 -csv out.csv
//	nextsim -app lineage2revolution -scheme next -train 8
//	nextsim -app lineage2revolution -scheme next -train 8 -learner sarsa
//	nextsim -app pubgmobile -platform sd855-120hz
//	nextsim -scenario commute                 # a composed usage scenario
//	nextsim -scenario thermal-soak -seconds 120
//	nextsim -scenarios                        # list the scenario library
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"nextdvfs"
	"nextdvfs/internal/learner"
	"nextdvfs/internal/platform"
	"nextdvfs/internal/trace"
)

func main() {
	app := flag.String("app", "spotify", "application preset: "+strings.Join(nextdvfs.Apps(), ", "))
	scen := flag.String("scenario", "", "usage scenario preset (overrides -app): "+strings.Join(nextdvfs.Scenarios(), ", "))
	listScens := flag.Bool("scenarios", false, "list the scenario library and exit")
	plat := flag.String("platform", platform.DefaultName, "simulated device: "+strings.Join(nextdvfs.Platforms(), ", "))
	scheme := flag.String("scheme", "schedutil", "management scheme: "+strings.Join(nextdvfs.Schemes(), ", "))
	learnerName := flag.String("learner", "", "for -scheme next: TD update rule ("+strings.Join(nextdvfs.Learners(), ", ")+"; default watkins)")
	explorer := flag.String("explorer", "", "for -scheme next: exploration strategy ("+strings.Join(nextdvfs.Explorers(), ", ")+"; default egreedy)")
	seconds := flag.Float64("seconds", 0, "session length (0 = paper default; with -scenario: rescale to this total)")
	seed := flag.Int64("seed", 1, "session seed")
	train := flag.Int("train", 0, "for -scheme next: training sessions to run first")
	csv := flag.String("csv", "", "write the trace to this CSV file")
	every := flag.Float64("record", 1, "trace sample period in seconds")
	flag.Parse()

	if *listScens {
		for _, s := range nextdvfs.ScenarioInfos() {
			fmt.Printf("%-18s %6.0f s  %s\n%18s          apps: %s\n",
				s.Name, s.Seconds, s.Description, "", strings.Join(s.Apps, ", "))
		}
		return
	}

	if err := learner.CheckNames(*learnerName, *explorer); err != nil {
		fatal(err)
	}

	opts := nextdvfs.RunOptions{
		App:            *app,
		Platform:       *plat,
		Seconds:        *seconds,
		Scheme:         nextdvfs.Scheme(*scheme),
		Learner:        *learnerName,
		Explorer:       *explorer,
		Seed:           *seed,
		RecordEverySec: *every,
	}
	label := *app
	if *scen != "" {
		opts.Scenario = *scen
		opts.App = ""
		label = "scenario " + *scen
	}
	if opts.Scheme == nextdvfs.SchemeNext && *train > 0 {
		if opts.Scenario != "" {
			// Train on the scenario itself: repeated differently-seeded
			// sessions of the same usage shape, one shared agent.
			cfg, err := nextdvfs.AgentConfigFor(*plat)
			if err != nil {
				fatal(err)
			}
			cfg.Seed = *seed
			cfg.Learner = *learnerName
			cfg.Explorer = *explorer
			agent := nextdvfs.NewAgent(cfg)
			for i := 1; i <= *train; i++ {
				trainOpts := opts
				trainOpts.Agent = agent
				trainOpts.Seed = *seed + int64(i)
				trainOpts.RecordEverySec = 0
				if _, err := nextdvfs.Run(trainOpts); err != nil {
					fatal(err)
				}
			}
			fmt.Printf("trained on scenario %s: %d sessions\n", *scen, *train)
			opts.Agent = agent
		} else {
			agent, stats, err := nextdvfs.TrainAgent(*app, nextdvfs.TrainOptions{
				Sessions: *train, Seed: *seed, Platform: *plat,
				Learner: *learnerName, Explorer: *explorer,
			})
			if err != nil {
				fatal(err)
			}
			fmt.Printf("trained %s: sessions=%d converged=%v on-device time=%.0f s, %d states\n",
				*app, stats.Sessions, stats.Converged, float64(stats.TrainedUS)/1e6, stats.States)
			opts.Agent = agent
		}
	}

	res, err := nextdvfs.Run(opts)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("session: %s on %s (%s), %.0f s\n", label, res.Scheme, *plat, res.DurationS)
	fmt.Printf("  power:   avg %.3f W, peak %.2f W, energy %.1f J\n", res.AvgPowerW, res.PeakPowerW, res.EnergyJ)
	fmt.Printf("  thermal: big avg %.1f °C peak %.1f °C | device avg %.1f °C peak %.1f °C\n",
		res.AvgTempBigC, res.PeakTempBigC, res.AvgTempDevC, res.PeakTempDevC)
	fmt.Printf("  QoS:     avg FPS %.1f (active %.1f), displayed %d, dropped %d (%.2f%%)\n",
		res.AvgFPS, res.ActiveAvgFPS, res.FramesDisplayed, res.FramesDropped, 100*res.DropRate())
	if len(res.Samples) > 1 {
		const w = 60
		fmt.Printf("  fps      %s\n", trace.Sparkline(trace.SampleSeries(res.Samples, "fps"), w))
		fmt.Printf("  power    %s\n", trace.Sparkline(trace.SampleSeries(res.Samples, "power"), w))
		fmt.Printf("  temp_big %s\n", trace.Sparkline(trace.SampleSeries(res.Samples, "tempbig"), w))
	}

	if *csv != "" {
		if err := trace.SaveSamples(*csv, []string{"big", "LITTLE", "GPU"}, res.Samples); err != nil {
			fatal(err)
		}
		fmt.Println("trace written to", *csv)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nextsim:", err)
	os.Exit(1)
}
