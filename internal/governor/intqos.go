package governor

import (
	"nextdvfs/internal/ctrl"
)

// PowerEstimator predicts the power (watts) a cluster would draw at OPP
// index idx with the given utilization. Int. QoS PM's published design
// evaluates candidate frequency pairs against a power cost model; the
// engine wires this to the same analytic model the simulator burns, so
// the baseline is as well-informed as it was on the authors' testbed.
type PowerEstimator func(cluster string, idx int, util float64) float64

// The baseline's tuning, as used for the paper's comparison.
const (
	// intqosEpochUS is the averaging window (the paper critiques exactly
	// this averaging: "the FPS range ... is averaged over a time
	// period").
	intqosEpochUS = 500_000
	// intqosSampleUS is the FPS/util sampling period inside an epoch.
	intqosSampleUS = 50_000
	// intqosQoSPenaltyWPerFPS converts predicted FPS shortfall into
	// cost-model watts so the pair search trades power against QoS.
	intqosQoSPenaltyWPerFPS = 0.5
	// intqosHeadroom keeps utilization off the ceiling (0.9 → plan for
	// 90 %).
	intqosHeadroom = 0.9
)

// IntQoSPM reimplements the integrated CPU-GPU power manager for 3D
// mobile games of Pathania et al. (DAC'14) from its published
// description: measure the average frame rate over an epoch, take it as
// the required performance, and pick the CPU/GPU frequency pair that
// minimizes modelled power while predicted FPS meets the target. The
// scheme only manages games; for any other app class it releases
// control to the stock governor (the paper could evaluate it only on
// Lineage and PubG for the same reason).
type IntQoSPM struct {
	estimate PowerEstimator
	// refreshHz caps the inferred target: no frame rate above the
	// panel's refresh rate can be delivered.
	refreshHz float64

	isGame bool

	// Epoch accumulators (means over Observe samples).
	n                                  int
	fpsSum                             float64
	bigNormSum, gpuNormSum, litNormSum float64

	// stickyTarget remembers the game's demand across epochs with a
	// slow decay, so a transiently throttled epoch cannot drag the
	// target — and then the pins — into a downward spiral. The decay
	// still lets the target follow a genuine demand change (menu vs
	// match) over tens of seconds.
	stickyTarget float64

	released bool
}

// NewIntQoSPM builds the baseline with a power estimator for a panel
// refreshing at refreshHz.
func NewIntQoSPM(est PowerEstimator, refreshHz int) *IntQoSPM {
	if est == nil {
		panic("governor: IntQoSPM needs a power estimator")
	}
	if refreshHz <= 0 {
		panic("governor: IntQoSPM needs a positive refresh rate")
	}
	return &IntQoSPM{estimate: est, refreshHz: float64(refreshHz)}
}

// Name implements ctrl.Controller.
func (g *IntQoSPM) Name() string { return "intqospm" }

// ObserveIntervalUS implements ctrl.Controller.
func (g *IntQoSPM) ObserveIntervalUS() int64 { return intqosSampleUS }

// ControlIntervalUS implements ctrl.Controller.
func (g *IntQoSPM) ControlIntervalUS() int64 { return intqosEpochUS }

// AppChanged implements ctrl.Controller.
func (g *IntQoSPM) AppChanged(_ string, isGame bool) {
	g.isGame = isGame
	g.resetEpoch()
	g.stickyTarget = 0
	g.released = false
}

// Observe implements ctrl.Controller. Samples with FPS below the
// demand floor (menus fading, splash screens) are excluded from the
// average: the published scheme targets the game's rendering demand,
// and folding idle zeros in would spiral the target — and the pinned
// frequencies — downward. The flip side, faithful to the paper's
// critique, is that Int. QoS PM never exploits idle/loading phases the
// way a user-interaction-aware agent does.
func (g *IntQoSPM) Observe(snap ctrl.Snapshot) {
	if !g.isGame {
		return
	}
	if snap.FPS < 5 {
		return
	}
	g.n++
	g.fpsSum += snap.FPS
	for _, c := range snap.Clusters {
		switch {
		case c.IsGPU:
			g.gpuNormSum += c.NormUtil
		case c.Name == "big":
			g.bigNormSum += c.NormUtil
		default:
			g.litNormSum += c.NormUtil
		}
	}
}

// Control implements ctrl.Controller.
func (g *IntQoSPM) Control(snap ctrl.Snapshot, act ctrl.Actuator) {
	if !g.isGame {
		// Not a game: release every cluster to stock management.
		if !g.released {
			for _, c := range snap.Clusters {
				act.SetFloor(c.Name, 0)
				act.SetCap(c.Name, c.NumOPPs-1)
			}
			g.released = true
		}
		return
	}
	if g.n == 0 {
		return
	}
	fps := g.fpsSum / float64(g.n)
	bigNorm := g.bigNormSum / float64(g.n)
	gpuNorm := g.gpuNormSum / float64(g.n)
	litNorm := g.litNormSum / float64(g.n)
	g.resetEpoch()

	const stickyDecay = 0.995
	g.stickyTarget *= stickyDecay
	if fps > g.stickyTarget {
		g.stickyTarget = fps
	}
	target := min(g.stickyTarget, g.refreshHz)

	var bigView, gpuView, litView *ctrl.ClusterView
	for i := range snap.Clusters {
		c := &snap.Clusters[i]
		switch {
		case c.IsGPU:
			gpuView = c
		case c.Name == "big":
			bigView = c
		default:
			litView = c
		}
	}
	if bigView == nil || gpuView == nil {
		return
	}

	// Capacity fraction (of max) each subsystem needs to sustain target.
	effFPS := fps
	if effFPS < 1 {
		effFPS = 1
	}
	needBig := bigNorm * target / effFPS / intqosHeadroom
	needGPU := gpuNorm * target / effFPS / intqosHeadroom

	bestBig, bestGPU := g.searchPair(bigView, gpuView, needBig, needGPU, target)
	act.Pin(bigView.Name, bestBig)
	act.Pin(gpuView.Name, bestGPU)

	// LITTLE is not part of the published CPU-GPU pair search; pin it
	// proportionally to its own load with the same headroom.
	if litView != nil {
		idx := minIndexForCapacity(litView, litNorm/intqosHeadroom)
		act.Pin(litView.Name, idx)
	}
}

// searchPair enumerates all (CPU, GPU) OPP pairs and returns the pair
// minimizing modelled power plus the QoS shortfall penalty.
func (g *IntQoSPM) searchPair(big, gpu *ctrl.ClusterView, needBig, needGPU, target float64) (int, int) {
	bestCost := -1.0
	bestB, bestG := big.NumOPPs-1, gpu.NumOPPs-1
	for ib := 0; ib < big.NumOPPs; ib++ {
		capB := capacityFrac(big, ib)
		utilB := clamp01(safeDiv(needBig*intqosHeadroom, capB))
		pb := g.estimate(big.Name, ib, utilB)
		for ig := 0; ig < gpu.NumOPPs; ig++ {
			capG := capacityFrac(gpu, ig)
			utilG := clamp01(safeDiv(needGPU*intqosHeadroom, capG))
			pg := g.estimate(gpu.Name, ig, utilG)

			pred := target
			if needBig > 0 {
				if r := capB / needBig * target; r < pred {
					pred = r
				}
			}
			if needGPU > 0 {
				if r := capG / needGPU * target; r < pred {
					pred = r
				}
			}
			shortfall := target - pred
			if shortfall < 0 {
				shortfall = 0
			}
			cost := pb + pg + intqosQoSPenaltyWPerFPS*shortfall
			if bestCost < 0 || cost < bestCost {
				bestCost = cost
				bestB, bestG = ib, ig
			}
		}
	}
	return bestB, bestG
}

func (g *IntQoSPM) resetEpoch() {
	g.n = 0
	g.fpsSum = 0
	g.bigNormSum, g.gpuNormSum, g.litNormSum = 0, 0, 0
}

// Reset implements ctrl.Controller.
func (g *IntQoSPM) Reset() {
	g.resetEpoch()
	g.isGame = false
	g.released = false
}

// capacityFrac is OPP idx's capacity as a fraction of the top OPP,
// using the linear-in-frequency performance model the published cost
// model uses.
func capacityFrac(c *ctrl.ClusterView, idx int) float64 {
	if len(c.OPPKHz) == 0 {
		return 1
	}
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.OPPKHz) {
		idx = len(c.OPPKHz) - 1
	}
	top := c.OPPKHz[len(c.OPPKHz)-1]
	if top == 0 {
		return 1
	}
	return float64(c.OPPKHz[idx]) / float64(top)
}

// minIndexForCapacity returns the lowest OPP index whose estimated
// capacity fraction covers need.
func minIndexForCapacity(c *ctrl.ClusterView, need float64) int {
	for i := 0; i < c.NumOPPs; i++ {
		if capacityFrac(c, i) >= need {
			return i
		}
	}
	return c.NumOPPs - 1
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
