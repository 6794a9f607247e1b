package stats

import "testing"

// The simulator's per-tick statistics primitives sit inside the
// zero-allocation tick loop; these pins keep them off the heap.

func TestEWMAPushZeroAlloc(t *testing.T) {
	e := EWMA{Alpha: 0.5}
	v := 0.0
	allocs := testing.AllocsPerRun(1000, func() {
		v += 0.25
		e.Push(v)
	})
	if allocs != 0 {
		t.Fatalf("EWMA.Push allocates %v per call, want 0", allocs)
	}
}

func TestSummaryPushZeroAlloc(t *testing.T) {
	var s Summary
	v := 0.0
	allocs := testing.AllocsPerRun(1000, func() {
		v += 0.5
		s.Push(v)
	})
	if allocs != 0 {
		t.Fatalf("Summary.Push allocates %v per call, want 0", allocs)
	}
}

func TestQuantizerZeroAlloc(t *testing.T) {
	q := NewQuantizer(0, 120, 12)
	v := 0.0
	allocs := testing.AllocsPerRun(1000, func() {
		v += 0.37
		if v > 120 {
			v = 0
		}
		q.Value(q.Index(v))
	})
	if allocs != 0 {
		t.Fatalf("Quantizer Index/Value allocates %v per call, want 0", allocs)
	}
}

// ModeCounter.Push runs at the controller's 25 ms cadence rather than
// every tick, but it shares the hot path budget: steady-state pushes
// over a bounded value set must not allocate (map churn reuses cells).
func TestModeCounterSteadyStateZeroAlloc(t *testing.T) {
	m := NewModeCounter(160)
	// Warm: fill the window and materialize every map cell.
	for i := 0; i < 640; i++ {
		m.Push(i % 61)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		m.Push(i % 61)
		m.Mode()
		i++
	})
	if allocs != 0 {
		t.Fatalf("ModeCounter.Push/Mode allocates %v per call in steady state, want 0", allocs)
	}
}
