// Package scenario is the composable user-interaction scenario engine:
// it turns a declarative description of a usage session — timed phases
// of apps, interaction modes, screen state, panel refresh and ambient
// temperature — into the concrete artifacts the simulator consumes (a
// session.Timeline plus thermal/display environment schedules).
//
// Scenarios are the axis the paper's fixed Fig. 6–8 replay sequences
// leave closed: the same policy can now be trained and evaluated on a
// commute, a gaming marathon, a doomscrolling night or a hot-car
// thermal soak (see the preset library in presets.go). Compilation is
// deterministic and seedable — the same (scenario, seed) pair always
// yields byte-identical timelines and schedules, so scenario grids
// inherit the repo-wide invariant that -parallel 1 and -parallel 8
// produce byte-identical results.
package scenario

import (
	"fmt"
	"math/rand"

	"nextdvfs/internal/display"
	"nextdvfs/internal/session"
	"nextdvfs/internal/thermal"
	"nextdvfs/internal/workload"
)

// Phase is one timed segment of a scenario: an app held for a duration
// under a chosen engagement mode, with optional environment changes
// taking effect at the phase boundary.
type Phase struct {
	// App is the preset application name (see workload.ByName).
	App string
	// Seconds is the phase duration (> 0).
	Seconds float64
	// Mode selects the engagement during the phase.
	Mode Mode
	// Inter is the fixed interaction when Mode == ModeFixed.
	Inter workload.Interaction
	// AmbientC, when non-zero, moves the environment to this ambient at
	// the phase start; it persists until a later phase overrides it.
	AmbientC float64
	// RefreshHz, when non-zero, switches the panel to this rate at the
	// phase start; it persists until a later phase overrides it.
	RefreshHz int
}

// Mode is how the user engages with the app during a phase.
type Mode int

const (
	// ModeAuto draws a class-appropriate interaction script for the app
	// (the session generators behind the paper's replay sequences).
	ModeAuto Mode = iota
	// ModeFixed holds one interaction for the whole phase.
	ModeFixed
	// ModeScreenOff turns the screen off: the app stays resident (audio
	// keeps playing, sync keeps running) but produces no frames and the
	// device sheds the display's share of base power.
	ModeScreenOff
)

// Scenario is a named, composable usage session.
type Scenario struct {
	Name        string
	Description string
	// AmbientC, when non-zero, is the ambient the scenario starts in
	// (phases may move it); zero inherits the platform's ambient.
	AmbientC float64
	Phases   []Phase
}

// DurS returns the scenario's total duration in seconds.
func (s Scenario) DurS() float64 {
	var d float64
	for _, p := range s.Phases {
		d += p.Seconds
	}
	return d
}

// Apps returns the distinct preset apps the scenario visits, in order
// of first appearance.
func (s Scenario) Apps() []string {
	seen := make(map[string]bool, len(s.Phases))
	var apps []string
	for _, p := range s.Phases {
		if !seen[p.App] {
			seen[p.App] = true
			apps = append(apps, p.App)
		}
	}
	return apps
}

// Validate reports the first inconsistency, or nil.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("scenario %q: no phases", s.Name)
	}
	for i, p := range s.Phases {
		switch {
		case workload.ByName(p.App) == nil:
			return fmt.Errorf("scenario %q phase %d: unknown app %q", s.Name, i, p.App)
		case p.Seconds <= 0:
			return fmt.Errorf("scenario %q phase %d (%s): duration %v s", s.Name, i, p.App, p.Seconds)
		case p.Mode < ModeAuto || p.Mode > ModeScreenOff:
			return fmt.Errorf("scenario %q phase %d (%s): bad mode %d", s.Name, i, p.App, int(p.Mode))
		case p.RefreshHz < 0:
			return fmt.Errorf("scenario %q phase %d (%s): refresh %d Hz", s.Name, i, p.App, p.RefreshHz)
		}
	}
	return nil
}

// Scaled returns a copy of the scenario with every phase duration
// multiplied by factor — how tests, smoke runs and quick looks shrink a
// 40-minute scenario to seconds while keeping its shape. The copy keeps
// the scenario's name; callers that must distinguish scaled results
// report the factor alongside it (as Result.DurationS always shows).
func Scaled(s Scenario, factor float64) Scenario {
	if factor <= 0 || factor == 1 {
		return s
	}
	v := s
	v.Phases = append([]Phase(nil), s.Phases...)
	for i := range v.Phases {
		v.Phases[i].Seconds *= factor
	}
	return v
}

// ScaledTo rescales the scenario to a total of secs seconds (secs <= 0,
// or a scenario with no duration, leaves it unchanged).
func ScaledTo(s Scenario, secs float64) Scenario {
	if d := s.DurS(); secs > 0 && d > 0 {
		return Scaled(s, secs/d)
	}
	return s
}

// Compiled is a scenario lowered to the simulator's inputs.
type Compiled struct {
	Scenario Scenario
	// Timeline is the app/interaction schedule for sim.Config.Timeline.
	Timeline *session.Timeline
	// Ambient drives thermal ambient over the run; nil when the scenario
	// never departs from the base ambient.
	Ambient *thermal.AmbientSchedule
	// Refresh drives the panel rate; nil when no phase switches it.
	Refresh *display.RefreshSchedule
}

// Compile lowers a scenario into a timeline and environment schedules.
// baseAmbientC is the platform's ambient, used until (unless) the
// scenario overrides it. All stochastic interaction drawing flows from
// seed; equal (scenario, seed, baseAmbientC) triples compile to
// byte-identical artifacts.
func Compile(s Scenario, seed int64, baseAmbientC float64) (*Compiled, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	c := &Compiled{Scenario: s, Timeline: &session.Timeline{}}

	ambient := baseAmbientC
	if s.AmbientC != 0 {
		ambient = s.AmbientC
	}
	ambientSteps := []thermal.AmbientStep{{AtUS: 0, AmbientC: ambient}}
	ambientMoves := ambient != baseAmbientC
	var refreshSteps []display.RefreshStep

	var nowUS int64
	for _, p := range s.Phases {
		durUS := session.Seconds(p.Seconds)
		if durUS <= 0 {
			// Sub-microsecond phases can appear under aggressive Scaled
			// factors; clamp so the timeline stays valid.
			durUS = 1
		}
		var phases []session.Phase
		switch p.Mode {
		case ModeScreenOff:
			phases = []session.Phase{{Inter: workload.InterOff, DurUS: durUS}}
		case ModeFixed:
			phases = []session.Phase{{Inter: p.Inter, DurUS: durUS}}
		default:
			phases = session.ForApp(workload.ByName(p.App), durUS, rng).Phases
		}
		// Consecutive phases of the same app extend one Script: the app
		// stays resident across e.g. active → screen-off → active, so the
		// engine must not fire its app-switch path (app Reset, in-flight
		// frame drop, Controller.AppChanged) at those boundaries.
		if n := len(c.Timeline.Scripts); n > 0 && c.Timeline.Scripts[n-1].App.Name() == p.App {
			c.Timeline.Scripts[n-1].Phases = append(c.Timeline.Scripts[n-1].Phases, phases...)
		} else {
			c.Timeline.Scripts = append(c.Timeline.Scripts, session.Script{App: workload.ByName(p.App), Phases: phases})
		}

		if p.AmbientC != 0 && p.AmbientC != ambient {
			ambient = p.AmbientC
			ambientMoves = true
			if nowUS == 0 {
				ambientSteps[0].AmbientC = ambient
			} else {
				ambientSteps = append(ambientSteps, thermal.AmbientStep{AtUS: nowUS, AmbientC: ambient})
			}
		}
		if p.RefreshHz > 0 {
			n := len(refreshSteps)
			if n == 0 || refreshSteps[n-1].RefreshHz != p.RefreshHz {
				refreshSteps = append(refreshSteps, display.RefreshStep{AtUS: nowUS, RefreshHz: p.RefreshHz})
			}
		}
		nowUS += durUS
	}

	if ambientMoves {
		sched, err := thermal.NewAmbientSchedule(ambientSteps)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		c.Ambient = sched
	}
	if len(refreshSteps) > 0 {
		sched, err := display.NewRefreshSchedule(refreshSteps)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		c.Refresh = sched
	}
	return c, nil
}
