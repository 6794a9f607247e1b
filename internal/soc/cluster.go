package soc

import "fmt"

// Kind distinguishes the two PE classes the simulator models.
type Kind int

// Cluster kinds.
const (
	KindCPU Kind = iota
	KindGPU
)

// String returns "CPU" or "GPU".
func (k Kind) String() string {
	switch k {
	case KindCPU:
		return "CPU"
	case KindGPU:
		return "GPU"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// OPP is one operating performance point: a frequency and the supply
// voltage the rail needs to sustain it.
type OPP struct {
	FreqKHz   int // core clock in kHz
	VoltMicro int // supply voltage in µV
}

// FreqGHz returns the OPP frequency in GHz.
func (o OPP) FreqGHz() float64 { return float64(o.FreqKHz) / 1e6 }

// Volts returns the supply voltage in volts.
func (o OPP) Volts() float64 { return float64(o.VoltMicro) / 1e6 }

// Cluster is one DVFS domain: a set of identical cores sharing a clock
// and a voltage rail. Frequencies are selected per cluster, never per
// core (cluster-wise DVFS, as on the Exynos 9810).
//
// OPPs are stored in ascending frequency order, so "frequency up" is
// index+1. The cluster maintains three indices:
//
//   - cur:   the OPP the governor last requested (clamped);
//   - cap:   the maxfreq cap (what the Next agent manipulates);
//   - floor: the minfreq floor (used by input boost).
//
// Invariant: 0 <= floor <= cap <= len(OPPs)-1 and floor <= cur <= cap.
type Cluster struct {
	Name  string
	Kind  Kind
	Cores int
	// IPC is the per-core instructions-per-cycle throughput factor used
	// by the performance model to convert clock cycles into work units.
	// Big out-of-order cores have IPC > LITTLE in-order cores.
	IPC  float64
	opps []OPP

	cur   int
	cap   int
	floor int
}

// NewCluster builds a cluster from an ascending-frequency OPP table.
// The initial state is floor=0, cap=top, cur=top (mirrors Linux boot
// state before a governor takes over). It panics on an empty or
// unsorted table: a malformed platform description is a programming
// error, not a runtime condition.
func NewCluster(name string, kind Kind, cores int, ipc float64, opps []OPP) *Cluster {
	if len(opps) == 0 {
		panic("soc: cluster needs at least one OPP")
	}
	for i := 1; i < len(opps); i++ {
		if opps[i].FreqKHz <= opps[i-1].FreqKHz {
			panic(fmt.Sprintf("soc: OPP table for %q not strictly ascending at %d", name, i))
		}
	}
	if cores <= 0 {
		panic("soc: cluster needs at least one core")
	}
	if ipc <= 0 {
		panic("soc: cluster IPC must be positive")
	}
	c := &Cluster{Name: name, Kind: kind, Cores: cores, IPC: ipc}
	c.opps = make([]OPP, len(opps))
	copy(c.opps, opps)
	c.cap = len(opps) - 1
	c.cur = len(opps) - 1
	return c
}

// NumOPPs returns the number of operating points.
func (c *Cluster) NumOPPs() int { return len(c.opps) }

// OPPAt returns the OPP at index i (clamped into range).
func (c *Cluster) OPPAt(i int) OPP {
	return c.opps[clampIdx(i, 0, len(c.opps)-1)]
}

// Cur returns the current OPP index.
func (c *Cluster) Cur() int { return c.cur }

// CurOPP returns the current operating point.
func (c *Cluster) CurOPP() OPP { return c.opps[c.cur] }

// Cap returns the maxfreq cap index.
func (c *Cluster) Cap() int { return c.cap }

// Floor returns the minfreq floor index.
func (c *Cluster) Floor() int { return c.floor }

// SetCur requests OPP index i; the effective index is clamped into
// [floor, cap]. It returns the index actually applied.
func (c *Cluster) SetCur(i int) int {
	c.cur = clampIdx(i, c.floor, c.cap)
	return c.cur
}

// SetCap moves the maxfreq cap to index i (clamped into [floor, top]).
// If the current OPP is above the new cap it is pulled down — exactly
// what writing scaling_max_freq does on Linux. Returns the applied cap.
func (c *Cluster) SetCap(i int) int {
	c.cap = clampIdx(i, c.floor, len(c.opps)-1)
	if c.cur > c.cap {
		c.cur = c.cap
	}
	return c.cap
}

// SetFloor moves the minfreq floor to index i (clamped into [0, cap]).
// If the current OPP is below the new floor it is pushed up. Returns
// the applied floor.
func (c *Cluster) SetFloor(i int) int {
	c.floor = clampIdx(i, 0, c.cap)
	if c.cur < c.floor {
		c.cur = c.floor
	}
	return c.floor
}

// FreqKHz returns the current clock in kHz.
func (c *Cluster) FreqKHz() int { return c.opps[c.cur].FreqKHz }

// FreqGHz returns the current clock in GHz.
func (c *Cluster) FreqGHz() float64 { return c.opps[c.cur].FreqGHz() }

// Volts returns the current rail voltage in volts.
func (c *Cluster) Volts() float64 { return c.opps[c.cur].Volts() }

// MaxOPP returns the fastest operating point in the table (ignoring the
// cap), used for normalization (utilization, PPDW bounds).
func (c *Cluster) MaxOPP() OPP { return c.opps[len(c.opps)-1] }

// IndexForFreqKHz returns the lowest OPP index whose frequency is >=
// khz, or the top index if khz exceeds the table. This is the cpufreq
// "CL" (ceiling) relation governors use to map a target frequency onto
// the discrete table.
func (c *Cluster) IndexForFreqKHz(khz int) int {
	for i, o := range c.opps {
		if o.FreqKHz >= khz {
			return i
		}
	}
	return len(c.opps) - 1
}

// ResetDVFS restores boot state: floor 0, cap top, cur top.
func (c *Cluster) ResetDVFS() {
	c.floor = 0
	c.cap = len(c.opps) - 1
	c.cur = c.cap
}

func clampIdx(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
