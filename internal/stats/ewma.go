package stats

// EWMA is an exponentially weighted moving average with smoothing factor
// Alpha in (0, 1]. Higher Alpha weights recent samples more. The zero
// value is ready to use once Alpha is set; the first Push seeds the
// average directly so there is no cold-start bias toward zero.
//
// The schedutil model uses an EWMA as a cheap stand-in for the kernel's
// PELT utilization tracking.
type EWMA struct {
	Alpha  float64
	value  float64
	seeded bool
}

// Push folds a sample into the average and returns the updated value.
func (e *EWMA) Push(v float64) float64 {
	if !e.seeded {
		e.value = v
		e.seeded = true
		return e.value
	}
	e.value += e.Alpha * (v - e.value)
	return e.value
}

// Value returns the current average (0 before any Push).
func (e *EWMA) Value() float64 { return e.value }

// Reset clears the average back to the unseeded state.
func (e *EWMA) Reset() {
	e.value = 0
	e.seeded = false
}
