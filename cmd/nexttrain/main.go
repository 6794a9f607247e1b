// Command nexttrain trains Next agents and manages their persisted
// Q-tables — the workflow of Section IV-B/IV-C: on-device training per
// app, optional federated merging across simulated devices, and a
// store directory the agent can be reloaded from.
//
// Usage:
//
//	nexttrain -app spotify -store qtables/
//	nexttrain -app spotify -learner doubleq -store qtables/
//	nexttrain -app pubgmobile -federated 4 -store qtables/
//	nexttrain -list -store qtables/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nextdvfs"
	"nextdvfs/internal/learner"
)

func main() {
	app := flag.String("app", "", "application preset to train on: "+strings.Join(nextdvfs.Apps(), ", "))
	store := flag.String("store", "qtables", "Q-table store directory")
	sessions := flag.Int("sessions", 0, "training sessions (0 = default 16)")
	seed := flag.Int64("seed", 1, "training seed")
	federated := flag.Int("federated", 0, "train on N devices and merge (Section IV-C)")
	learnerName := flag.String("learner", "", "TD update rule ("+strings.Join(nextdvfs.Learners(), ", ")+"; default watkins)")
	explorer := flag.String("explorer", "", "exploration strategy ("+strings.Join(nextdvfs.Explorers(), ", ")+"; default egreedy)")
	list := flag.Bool("list", false, "list stored Q-tables and exit")
	flag.Parse()

	if *list {
		listStore(*store)
		return
	}
	if *app == "" {
		fmt.Fprintln(os.Stderr, "nexttrain: -app is required (or -list)")
		os.Exit(2)
	}

	if *federated > 1 {
		trainFederated(*app, *store, *federated, *sessions, *seed, *learnerName, *explorer)
		return
	}

	agent, stats, err := nextdvfs.TrainAgent(*app, nextdvfs.TrainOptions{
		Sessions: *sessions, Seed: *seed, Learner: *learnerName, Explorer: *explorer,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("trained %s on-device: sessions=%d converged=%v training time=%.0f s states=%d steps=%d\n",
		stats.App, stats.Sessions, stats.Converged, float64(stats.TrainedUS)/1e6, stats.States, stats.Steps)
	saveAgent(agent, *store)
}

func trainFederated(app, store string, n, sessions int, seed int64, learnerName, explorer string) {
	cfg := nextdvfs.DefaultAgentConfig()
	cfg.Seed = seed
	if err := learner.CheckNames(learnerName, explorer); err != nil {
		fatal(err)
	}
	cfg.Learner = learnerName
	cfg.Explorer = explorer
	fleet := nextdvfs.NewFleet(n, cfg)
	// Each device trains locally on its own stochastic sessions.
	for i, dev := range fleet.Devices {
		stats, err := nextdvfs.TrainAgentOn(dev, app, nextdvfs.TrainOptions{
			Sessions: sessions, Seed: seed + int64(i)*1000,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("device %d: trained %s for %.0f s (%d states)\n",
			i+1, app, float64(stats.TrainedUS)/1e6, stats.States)
	}
	merged, wallUS, err := fleet.MergeApp(app)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("federated merge: %d states, cloud round wall time %.1f s (incl. ≤4 s comms)\n",
		merged.States(), float64(wallUS)/1e6)
	saveAgent(fleet.Devices[0], store)
}

func saveAgent(agent *nextdvfs.Agent, dir string) {
	st := nextdvfs.Store{Dir: dir}
	if err := st.SaveAgent(agent); err != nil {
		fatal(err)
	}
	fmt.Println("Q-tables saved under", dir)
}

func listStore(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".json" {
			info, _ := e.Info()
			fmt.Printf("%-40s %8d bytes\n", e.Name(), info.Size())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nexttrain:", err)
	os.Exit(1)
}
