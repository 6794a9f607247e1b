package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestModeBasic(t *testing.T) {
	tests := []struct {
		name    string
		in      []int
		wantVal int
		wantCnt int
	}{
		{"empty", nil, 0, 0},
		{"single", []int{42}, 42, 1},
		{"clear winner", []int{1, 2, 2, 2, 3}, 2, 3},
		{"tie breaks high", []int{30, 30, 60, 60}, 60, 2},
		{"all same", []int{7, 7, 7}, 7, 3},
		{"zero fps common", []int{0, 0, 0, 60, 60}, 0, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v, c := Mode(tt.in)
			if v != tt.wantVal || c != tt.wantCnt {
				t.Errorf("Mode(%v) = (%d,%d), want (%d,%d)", tt.in, v, c, tt.wantVal, tt.wantCnt)
			}
		})
	}
}

func TestModeCounterMatchesBatchMode(t *testing.T) {
	// Property: after pushing any stream through a ModeCounter of size n,
	// its mode equals Mode() of the last n samples.
	rng := rand.New(rand.NewSource(1))
	f := func(raw []uint8, sizeSeed uint8) bool {
		n := int(sizeSeed%16) + 1
		mc := NewModeCounter(n)
		var all []int
		for _, r := range raw {
			v := int(r % 61) // FPS-like domain 0..60
			all = append(all, v)
			mc.Push(v)
		}
		start := len(all) - n
		if start < 0 {
			start = 0
		}
		wantV, wantC := Mode(all[start:])
		gotV, gotC := mc.Mode()
		return gotV == wantV && gotC == wantC
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestModeCounterEviction(t *testing.T) {
	mc := NewModeCounter(3)
	for _, v := range []int{1, 1, 1} {
		mc.Push(v)
	}
	if v, c := mc.Mode(); v != 1 || c != 3 {
		t.Fatalf("mode = (%d,%d), want (1,3)", v, c)
	}
	// Push three 2s; the 1s must be fully evicted.
	for _, v := range []int{2, 2, 2} {
		mc.Push(v)
	}
	if v, c := mc.Mode(); v != 2 || c != 3 {
		t.Fatalf("after eviction mode = (%d,%d), want (2,3)", v, c)
	}
	if mc.Len() != mc.Cap() {
		t.Fatal("window should be full")
	}
}

func TestModeCounterFrameWindowSize(t *testing.T) {
	// The paper's frame window: 4 s at 25 ms = 160 samples.
	mc := NewModeCounter(160)
	if mc.Cap() != 160 {
		t.Fatalf("cap = %d, want 160", mc.Cap())
	}
	for i := 0; i < 159; i++ {
		mc.Push(60)
	}
	if mc.Len() != 159 {
		t.Fatalf("window should not be full at 159 samples, len=%d", mc.Len())
	}
	mc.Push(60)
	if mc.Len() != 160 {
		t.Fatalf("window should be full at 160 samples, len=%d", mc.Len())
	}
}

func TestModeCounterReset(t *testing.T) {
	mc := NewModeCounter(4)
	mc.Push(5)
	mc.Push(5)
	mc.Reset()
	if mc.Len() != 0 {
		t.Fatalf("len after reset = %d, want 0", mc.Len())
	}
	if _, c := mc.Mode(); c != 0 {
		t.Fatalf("mode count after reset = %d, want 0", c)
	}
}

func TestNewModeCounterPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	NewModeCounter(0)
}
