package exp

import (
	"fmt"
	"sort"
	"strings"

	"nextdvfs/internal/core"
	"nextdvfs/internal/governor"
	"nextdvfs/internal/platform"
	"nextdvfs/internal/sim"
)

// SchemeSpec is one registered power/thermal management stack: the
// registry replaces the string switches that used to be duplicated
// across the scenario grid, the evaluation drivers and the facade, so
// adding a scheme is one entry here and every surface — grids, CLIs,
// error messages — picks it up.
type SchemeSpec struct {
	Name        string
	Description string
	// TrainsAgent marks schemes that evaluate a trained Next agent;
	// grid cells train one first and pass it to Configure.
	TrainsAgent bool
	// Configure mutates a cell's sim config for the scheme. agent is
	// non-nil exactly when TrainsAgent is set.
	Configure func(cfg *sim.Config, plat platform.Platform, agent *core.Agent)
}

var schemeRegistry = map[string]SchemeSpec{}

func registerScheme(s SchemeSpec) {
	if _, dup := schemeRegistry[s.Name]; dup {
		panic("exp: duplicate scheme " + s.Name)
	}
	schemeRegistry[s.Name] = s
}

func init() {
	registerScheme(SchemeSpec{
		Name:        "schedutil",
		Description: "stock Android utilization governor with input boost (the paper's baseline)",
		Configure:   func(*sim.Config, platform.Platform, *core.Agent) {}, // platform default
	})
	registerScheme(SchemeSpec{
		Name:        "next",
		Description: "the paper's RL agent on top of schedutil",
		TrainsAgent: true,
		Configure: func(cfg *sim.Config, _ platform.Platform, agent *core.Agent) {
			cfg.Controller = agent
		},
	})
	registerScheme(SchemeSpec{
		Name:        "intqospm",
		Description: "Int. QoS PM baseline (games only; others fall back to schedutil)",
		Configure: func(cfg *sim.Config, plat platform.Platform, _ *core.Agent) {
			cfg.Controller = NewIntQoSOn(plat)
		},
	})
	registerScheme(SchemeSpec{
		Name:        "thermalcap",
		Description: "kernel-thermal-zone-style capping on the big sensor's trip point",
		Configure: func(cfg *sim.Config, _ platform.Platform, _ *core.Agent) {
			cfg.Controller = governor.NewThermalCap()
		},
	})
	registerScheme(SchemeSpec{
		Name:        "performance",
		Description: "every cluster pinned to its cap (bracketing governor)",
		Configure: func(cfg *sim.Config, _ platform.Platform, _ *core.Agent) {
			cfg.Governor = governor.Performance{}
		},
	})
	registerScheme(SchemeSpec{
		Name:        "powersave",
		Description: "every cluster pinned to its floor (bracketing governor)",
		Configure: func(cfg *sim.Config, _ platform.Platform, _ *core.Agent) {
			cfg.Governor = governor.Powersave{}
		},
	})
}

// Schemes lists the registered scheme names, sorted.
func Schemes() []string {
	names := make([]string, 0, len(schemeRegistry))
	for n := range schemeRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// GetScheme resolves a scheme name ("" = schedutil). The unknown-name
// error enumerates the live registry, so the message can never drift
// from the actual set.
func GetScheme(name string) (SchemeSpec, error) {
	if name == "" {
		name = "schedutil"
	}
	s, ok := schemeRegistry[name]
	if !ok {
		return SchemeSpec{}, fmt.Errorf("exp: unknown scheme %q (have: %s)", name, strings.Join(Schemes(), ", "))
	}
	return s, nil
}
