package exp

import (
	"nextdvfs/internal/ctrl"
	"nextdvfs/internal/governor"
	"nextdvfs/internal/platform"
)

// pinController pins cluster frequencies once at the first control tick
// (the Fig. 4 sweep's "userspace" actuation).
type pinController struct {
	caps map[string]int
	done bool
}

func (p *pinController) Name() string             { return "pin" }
func (p *pinController) ObserveIntervalUS() int64 { return 0 }
func (p *pinController) ControlIntervalUS() int64 { return 10_000 }
func (p *pinController) Observe(ctrl.Snapshot)    {}
func (p *pinController) Control(snap ctrl.Snapshot, act ctrl.Actuator) {
	if p.done {
		return
	}
	for name, idx := range p.caps {
		act.Pin(name, idx)
	}
	p.done = true
}
func (p *pinController) AppChanged(string, bool) {}
func (p *pinController) Reset()                  { p.done = false }

// NewIntQoSOn builds Int. QoS PM against the given platform's own chip
// and power model, so the baseline's cost model tracks whatever device
// the grid is sweeping.
func NewIntQoSOn(p platform.Platform) ctrl.Controller {
	chip := p.NewChip()
	pm := p.NewPower()
	est := func(cluster string, idx int, util float64) float64 {
		c := chip.Cluster(cluster)
		if c == nil {
			return 0
		}
		return pm.PowerAt(c, idx, util, 50)
	}
	return governor.NewIntQoSPM(est)
}
