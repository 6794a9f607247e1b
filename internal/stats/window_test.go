package stats

import (
	"math"
	"testing"
)

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
	if got := e.Push(8); got != 8 {
		t.Fatalf("first push = %g, want 8 (no cold-start bias)", got)
	}
	got := e.Push(0) // 8 + 0.25*(0-8) = 6
	if math.Abs(got-6) > 1e-12 {
		t.Fatalf("second push = %g, want 6", got)
	}
	e.Reset()
	if got := e.Push(3); got != 3 {
		t.Fatalf("first push after Reset = %g, want 3 (Reset unseeds)", got)
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
