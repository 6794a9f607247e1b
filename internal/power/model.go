package power

import (
	"fmt"

	"nextdvfs/internal/soc"
)

// Coeff holds the electrical coefficients of one cluster.
type Coeff struct {
	// CdynWPerGHzV2 is the effective switched capacitance: dynamic power
	// at 100 % utilization is Cdyn × f[GHz] × V² watts (whole cluster).
	CdynWPerGHzV2 float64
	// LeakWAtRef is static leakage at VRef and 25 °C for the whole
	// cluster (always burned while the rail is up).
	LeakWAtRef float64
	// VRef is the reference voltage for LeakWAtRef.
	VRef float64
	// LeakTempCo is the fractional leakage increase per °C above 25 °C
	// (exponential leakage linearized over the mobile range).
	LeakTempCo float64
	// IdleW is the floor burned by the cluster's uncore (caches,
	// interconnect port) even at zero utilization, on top of leakage.
	IdleW float64
}

// Model computes cluster and device power for a chip. Construct with
// NewModel or the Exynos9810Model preset.
type Model struct {
	coeffs map[string]Coeff
	// BaseW is the rest-of-device floor: display panel and backlight,
	// DRAM refresh, radios, PMIC losses. It dominates idle power on a
	// real phone and stops relative-savings figures from being absurd.
	BaseW float64
}

// NewModel builds a power model from per-cluster coefficients.
func NewModel(baseW float64, coeffs map[string]Coeff) *Model {
	m := &Model{coeffs: make(map[string]Coeff, len(coeffs)), BaseW: baseW}
	for k, v := range coeffs {
		m.coeffs[k] = v
	}
	return m
}

// Coeff returns the coefficients for cluster name.
func (m *Model) Coeff(name string) (Coeff, bool) {
	c, ok := m.coeffs[name]
	return c, ok
}

// ClusterPower returns the cluster's electrical power in watts at its
// current OPP, the given utilization (0..1) and temperature (°C).
func (m *Model) ClusterPower(c *soc.Cluster, util, tempC float64) float64 {
	co, ok := m.coeffs[c.Name]
	if !ok {
		panic(fmt.Sprintf("power: no coefficients for cluster %q", c.Name))
	}
	if util < 0 {
		util = 0
	} else if util > 1 {
		util = 1
	}
	opp := c.CurOPP()
	v := opp.Volts()
	dyn := co.CdynWPerGHzV2 * opp.FreqGHz() * v * v * util
	leak := co.LeakWAtRef * (v / co.VRef) * (1 + co.LeakTempCo*(tempC-25))
	if leak < 0 {
		leak = 0
	}
	return dyn + leak + co.IdleW
}

// PowerAt predicts the cluster's power at an arbitrary OPP index
// without disturbing its DVFS state — the estimator surface used by
// model-based controllers (Int. QoS PM's cost model).
func (m *Model) PowerAt(c *soc.Cluster, idx int, util, tempC float64) float64 {
	co, ok := m.coeffs[c.Name]
	if !ok {
		panic(fmt.Sprintf("power: no coefficients for cluster %q", c.Name))
	}
	if util < 0 {
		util = 0
	} else if util > 1 {
		util = 1
	}
	opp := c.OPPAt(idx)
	v := opp.Volts()
	dyn := co.CdynWPerGHzV2 * opp.FreqGHz() * v * v * util
	leak := co.LeakWAtRef * (v / co.VRef) * (1 + co.LeakTempCo*(tempC-25))
	if leak < 0 {
		leak = 0
	}
	return dyn + leak + co.IdleW
}

// Exynos9810Model returns coefficients calibrated for the Exynos 9810
// preset: big cluster peaks near 8 W, GPU near 3.5 W, LITTLE near 1.2 W,
// with a ~0.9 W device floor — matching the Note 9 envelope the paper's
// traces show (averages ≈2–3.5 W, gaming transients >10 W).
func Exynos9810Model() *Model {
	return NewModel(0.9, map[string]Coeff{
		soc.ClusterBig: {
			CdynWPerGHzV2: 2.45,
			LeakWAtRef:    0.50,
			VRef:          1.15,
			LeakTempCo:    0.011,
			IdleW:         0.12,
		},
		soc.ClusterLITTLE: {
			CdynWPerGHzV2: 0.72,
			LeakWAtRef:    0.08,
			VRef:          0.95,
			LeakTempCo:    0.009,
			IdleW:         0.05,
		},
		soc.ClusterGPU: {
			CdynWPerGHzV2: 7.40,
			LeakWAtRef:    0.30,
			VRef:          0.90,
			LeakTempCo:    0.010,
			IdleW:         0.08,
		},
	})
}

// Snapdragon855Model returns coefficients for the soc.Snapdragon855
// flagship: the 7 nm process buys lower switched capacitance and
// leakage than the Exynos preset at comparable peak performance — big
// peaks near 6.5 W, the Adreno-class GPU near 3 W.
func Snapdragon855Model() *Model {
	return NewModel(0.85, map[string]Coeff{
		soc.ClusterBig: {
			CdynWPerGHzV2: 1.95,
			LeakWAtRef:    0.38,
			VRef:          1.05,
			LeakTempCo:    0.010,
			IdleW:         0.10,
		},
		soc.ClusterLITTLE: {
			CdynWPerGHzV2: 0.58,
			LeakWAtRef:    0.06,
			VRef:          0.88,
			LeakTempCo:    0.009,
			IdleW:         0.04,
		},
		soc.ClusterGPU: {
			CdynWPerGHzV2: 6.10,
			LeakWAtRef:    0.24,
			VRef:          0.86,
			LeakTempCo:    0.010,
			IdleW:         0.07,
		},
	})
}

// Mid6Model returns coefficients for the soc.Mid6 mid-range SoC: a
// narrower big cluster and a small GPU cap the whole-device envelope
// well under the flagships' — there is less power to save, which
// stresses the agent's ability to still find PPDW headroom.
func Mid6Model() *Model {
	return NewModel(0.75, map[string]Coeff{
		soc.ClusterBig: {
			CdynWPerGHzV2: 1.10,
			LeakWAtRef:    0.20,
			VRef:          1.00,
			LeakTempCo:    0.010,
			IdleW:         0.08,
		},
		soc.ClusterLITTLE: {
			CdynWPerGHzV2: 0.80,
			LeakWAtRef:    0.09,
			VRef:          0.90,
			LeakTempCo:    0.009,
			IdleW:         0.05,
		},
		soc.ClusterGPU: {
			CdynWPerGHzV2: 3.90,
			LeakWAtRef:    0.16,
			VRef:          0.84,
			LeakTempCo:    0.010,
			IdleW:         0.05,
		},
	})
}

// Meter integrates power over time into energy and tracks the running
// average. The zero value is ready to use.
type Meter struct {
	EnergyJ float64
	timeS   float64
}

// Accumulate adds a dt-second interval at w watts.
func (e *Meter) Accumulate(w, dtSec float64) {
	e.EnergyJ += w * dtSec
	e.timeS += dtSec
}

// AvgW returns average power over the integrated interval (0 if empty).
func (e *Meter) AvgW() float64 {
	if e.timeS == 0 {
		return 0
	}
	return e.EnergyJ / e.timeS
}

// Seconds returns the total integrated time.
func (e *Meter) Seconds() float64 { return e.timeS }

// Reset clears the meter.
func (e *Meter) Reset() { e.EnergyJ, e.timeS = 0, 0 }
