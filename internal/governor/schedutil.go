package governor

import "nextdvfs/internal/soc"

// The schedutil model's tuning: the stock-Android-like configuration of
// the paper's baseline.
const (
	// schedHeadroom is the util multiplier (the kernel uses 1.25: "go
	// 25 % above the measured utilization so there is room to grow").
	schedHeadroom = 1.25
	// schedIntervalUS is the decision period (10 ms models the kernel's
	// rate-limited update path).
	schedIntervalUS = 10_000
	// schedDownRateLimitUS delays frequency drops: a cluster only scales
	// down after this long below the current choice, mimicking the
	// kernel's down_rate_limit and contributing to post-burst waste.
	schedDownRateLimitUS = 120_000
	// schedBoostUS is how long a touch boost holds the floors up.
	schedBoostUS = 250_000
	// schedBoostFloorFrac is the fraction of the OPP table (0..1) the
	// CPU floors jump to during a boost (Android vendors commonly floor
	// the big cluster around 60-70 % of the table on touch).
	schedBoostFloorFrac = 0.70
)

// Schedutil is the utilization-driven default governor. The zero value
// is ready to use.
type Schedutil struct {
	boostUntilUS int64
	// Per-cluster state lives in tiny linear-scanned slices rather than
	// maps: a chip has a handful of clusters, so the scan beats hashing
	// in the decision path and the backing arrays are reused across
	// decisions (no per-boost allocation).
	lastDownOK  []downEntry  // per cluster: time since when a down-switch is allowed
	savedFloors []floorEntry // floors to restore when the boost window closes
}

type downEntry struct {
	name    string
	sinceUS int64
}

type floorEntry struct {
	name  string
	floor int
}

func (s *Schedutil) downIdx(name string) int {
	for i := range s.lastDownOK {
		if s.lastDownOK[i].name == name {
			return i
		}
	}
	return -1
}

func (s *Schedutil) floorIdx(name string) int {
	for i := range s.savedFloors {
		if s.savedFloors[i].name == name {
			return i
		}
	}
	return -1
}

// Name implements Governor.
func (s *Schedutil) Name() string { return "schedutil" }

// IntervalUS implements Governor.
func (s *Schedutil) IntervalUS() int64 { return schedIntervalUS }

// OnInput implements InputBooster: raise CPU floors for the boost
// window. GPU is not boosted (Android input boost is a CPU mechanism).
func (s *Schedutil) OnInput(nowUS int64) {
	s.boostUntilUS = nowUS + schedBoostUS
}

// Decide implements Governor.
func (s *Schedutil) Decide(nowUS int64, obs []Observation) {
	boosting := nowUS < s.boostUntilUS
	for _, o := range obs {
		c := o.Cluster

		// Input boost: floor CPU clusters while the boost window is
		// open; restore when it closes.
		if c.Kind == soc.KindCPU {
			if boosting {
				if s.floorIdx(c.Name) < 0 {
					s.savedFloors = append(s.savedFloors, floorEntry{c.Name, c.Floor()})
				}
				boostIdx := int(float64(c.NumOPPs()-1) * schedBoostFloorFrac)
				c.SetFloor(boostIdx)
			} else if fi := s.floorIdx(c.Name); fi >= 0 {
				c.SetFloor(s.savedFloors[fi].floor)
				last := len(s.savedFloors) - 1
				s.savedFloors[fi] = s.savedFloors[last]
				s.savedFloors = s.savedFloors[:last]
			}
		}

		// Kernel formula: next_freq = headroom * f_max * util_norm.
		targetKHz := int(schedHeadroom * float64(c.MaxOPP().FreqKHz) * o.NormUtil)
		idx := c.IndexForFreqKHz(targetKHz)

		if idx < c.Cur() {
			// Down-switches are rate limited.
			di := s.downIdx(c.Name)
			if di < 0 {
				s.lastDownOK = append(s.lastDownOK, downEntry{c.Name, nowUS})
			} else if nowUS-s.lastDownOK[di].sinceUS >= schedDownRateLimitUS {
				c.SetCur(idx)
				s.lastDownOK[di].sinceUS = nowUS
			}
		} else if idx > c.Cur() {
			c.SetCur(idx)
			s.dropDown(c.Name)
		} else {
			s.dropDown(c.Name)
		}
	}
}

func (s *Schedutil) dropDown(name string) {
	if di := s.downIdx(name); di >= 0 {
		last := len(s.lastDownOK) - 1
		s.lastDownOK[di] = s.lastDownOK[last]
		s.lastDownOK = s.lastDownOK[:last]
	}
}

// Reset clears governor state for a fresh run. The caller is expected
// to reset the chip's DVFS state too (the engine does): a mid-boost
// Reset cannot restore floors it no longer remembers.
func (s *Schedutil) Reset() {
	s.boostUntilUS = 0
	s.savedFloors = s.savedFloors[:0]
	s.lastDownOK = s.lastDownOK[:0]
}
