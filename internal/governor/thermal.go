package governor

import (
	"nextdvfs/internal/ctrl"
)

// The thermal zone mirrors a typical handset's: capping begins at
// thermalTripC on the big sensor, caps lift one step at a time below
// thermalReleaseC (hysteresis), and the controller acts every
// thermalCapIntervalUS.
const (
	thermalTripC         = 75
	thermalReleaseC      = 65
	thermalCapIntervalUS = 500_000
)

// ThermalCap is a kernel-thermal-zone-style controller (an
// IPA-simplified baseline): it runs on top of any frequency governor
// and steps the big/GPU maxfreq caps down while the big sensor exceeds
// the trip point, releasing them with hysteresis. It knows nothing
// about the user, frames or QoS — it exists as the "thermal-only"
// reference against which user-aware management is worth comparing.
type ThermalCap struct {
	// capped tracks how many steps each cluster has been pulled down.
	capped map[string]int
}

// NewThermalCap builds the controller.
func NewThermalCap() *ThermalCap {
	return &ThermalCap{capped: make(map[string]int)}
}

// Name implements ctrl.Controller.
func (g *ThermalCap) Name() string { return "thermalcap" }

// ObserveIntervalUS implements ctrl.Controller (no fine sampling).
func (g *ThermalCap) ObserveIntervalUS() int64 { return 0 }

// ControlIntervalUS implements ctrl.Controller.
func (g *ThermalCap) ControlIntervalUS() int64 { return thermalCapIntervalUS }

// Observe implements ctrl.Controller.
func (g *ThermalCap) Observe(ctrl.Snapshot) {}

// AppChanged implements ctrl.Controller.
func (g *ThermalCap) AppChanged(string, bool) {}

// Control implements ctrl.Controller.
func (g *ThermalCap) Control(snap ctrl.Snapshot, act ctrl.Actuator) {
	switch {
	case snap.TempBigC >= thermalTripC:
		// Step the hot clusters down one OPP per period.
		for _, c := range snap.Clusters {
			if c.Name != "big" && !c.IsGPU {
				continue
			}
			if c.CurIdx > 0 {
				act.SetCap(c.Name, c.CurIdx-1)
				g.capped[c.Name]++
			}
		}
	case snap.TempBigC <= thermalReleaseC:
		// Release one step of capping per period.
		for _, c := range snap.Clusters {
			if g.capped[c.Name] > 0 {
				act.SetCap(c.Name, c.CapIdx+1)
				g.capped[c.Name]--
				if g.capped[c.Name] == 0 {
					act.SetCap(c.Name, c.NumOPPs-1)
				}
			}
		}
	}
}

// Reset implements ctrl.Controller.
func (g *ThermalCap) Reset() { g.capped = make(map[string]int) }
