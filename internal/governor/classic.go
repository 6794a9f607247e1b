package governor

// classicIntervalUS is the decision period of the performance and
// powersave governors.
const classicIntervalUS = 10_000

// Performance always runs every cluster at its cap — the kernel
// "performance" governor.
type Performance struct{}

// Name implements Governor.
func (Performance) Name() string { return "performance" }

// IntervalUS implements Governor.
func (Performance) IntervalUS() int64 { return classicIntervalUS }

// Decide implements Governor.
func (Performance) Decide(_ int64, obs []Observation) {
	for _, o := range obs {
		o.Cluster.SetCur(o.Cluster.Cap())
	}
}

// Reset implements Governor.
func (Performance) Reset() {}

// Powersave always runs every cluster at its floor.
type Powersave struct{}

// Name implements Governor.
func (Powersave) Name() string { return "powersave" }

// IntervalUS implements Governor.
func (Powersave) IntervalUS() int64 { return classicIntervalUS }

// Decide implements Governor.
func (Powersave) Decide(_ int64, obs []Observation) {
	for _, o := range obs {
		o.Cluster.SetCur(o.Cluster.Floor())
	}
}

// Reset implements Governor.
func (Powersave) Reset() {}
