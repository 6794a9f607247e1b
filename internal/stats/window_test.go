package stats

import (
	"math"
	"testing"
)

func TestRollingMean(t *testing.T) {
	r := NewRolling(4)
	if r.Mean() != 0 {
		t.Fatal("empty mean should be 0")
	}
	for _, v := range []float64{1, 2, 3, 4} {
		r.Push(v)
	}
	if got := r.Mean(); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("mean = %g, want 2.5", got)
	}
	r.Push(5) // evicts 1 -> window {2,3,4,5}
	if got := r.Mean(); math.Abs(got-3.5) > 1e-12 {
		t.Fatalf("mean after eviction = %g, want 3.5", got)
	}
}

func TestRollingMinMax(t *testing.T) {
	r := NewRolling(3)
	r.Push(7)
	r.Push(-2)
	r.Push(4)
	if r.Max() != 7 || r.Min() != -2 {
		t.Fatalf("min/max = %g/%g, want -2/7", r.Min(), r.Max())
	}
	r.Push(0) // evicts 7
	if r.Max() != 4 {
		t.Fatalf("max after eviction = %g, want 4", r.Max())
	}
}

func TestRollingResetAndLen(t *testing.T) {
	r := NewRolling(2)
	r.Push(1)
	if r.Len() != 1 || r.Full() {
		t.Fatal("len/full wrong after one push")
	}
	r.Push(1)
	if !r.Full() {
		t.Fatal("should be full")
	}
	r.Reset()
	if r.Len() != 0 || r.Mean() != 0 {
		t.Fatal("reset did not clear window")
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	for _, v := range []float64{3.5, 1.0, 2.5} {
		s.Push(v)
	}
	if s.N != 3 {
		t.Fatalf("N = %d, want 3", s.N)
	}
	if math.Abs(s.Mean()-7.0/3) > 1e-12 {
		t.Fatalf("mean = %g", s.Mean())
	}
	if s.Min() != 1.0 || s.Max() != 3.5 {
		t.Fatalf("min/max = %g/%g", s.Min(), s.Max())
	}
}

func TestSummaryEmptyIsZero(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Max() != 0 || s.Min() != 0 {
		t.Fatal("empty summary should report zeros")
	}
}

func TestEWMASeedsWithFirstSample(t *testing.T) {
	e := EWMA{Alpha: 0.25}
	if e.Seeded() {
		t.Fatal("zero value should be unseeded")
	}
	if got := e.Push(8); got != 8 {
		t.Fatalf("first push = %g, want 8 (no cold-start bias)", got)
	}
	got := e.Push(0) // 8 + 0.25*(0-8) = 6
	if math.Abs(got-6) > 1e-12 {
		t.Fatalf("second push = %g, want 6", got)
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := EWMA{Alpha: 0.3}
	for i := 0; i < 200; i++ {
		e.Push(42)
	}
	if math.Abs(e.Value()-42) > 1e-9 {
		t.Fatalf("EWMA did not converge: %g", e.Value())
	}
}
