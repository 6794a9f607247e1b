package soc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testCluster() *Cluster {
	return NewCluster("test", KindCPU, 4, 1.5, []OPP{
		{FreqKHz: 500_000, VoltMicro: 600_000},
		{FreqKHz: 1_000_000, VoltMicro: 750_000},
		{FreqKHz: 1_500_000, VoltMicro: 900_000},
		{FreqKHz: 2_000_000, VoltMicro: 1_100_000},
	})
}

func TestClusterBootState(t *testing.T) {
	c := testCluster()
	if c.Cur() != 3 || c.Cap() != 3 || c.Floor() != 0 {
		t.Fatalf("boot state cur=%d cap=%d floor=%d, want 3/3/0", c.Cur(), c.Cap(), c.Floor())
	}
	if c.FreqKHz() != 2_000_000 {
		t.Fatalf("boot freq = %d", c.FreqKHz())
	}
}

func TestSetCurClampsToCapAndFloor(t *testing.T) {
	c := testCluster()
	c.SetCap(2)
	if got := c.SetCur(3); got != 2 {
		t.Fatalf("SetCur above cap applied %d, want 2", got)
	}
	c.SetFloor(1)
	if got := c.SetCur(0); got != 1 {
		t.Fatalf("SetCur below floor applied %d, want 1", got)
	}
}

func TestSetCapPullsCurrentDown(t *testing.T) {
	c := testCluster()
	c.SetCur(3)
	c.SetCap(1)
	if c.Cur() != 1 {
		t.Fatalf("cur after cap pull-down = %d, want 1", c.Cur())
	}
}

func TestSetFloorPushesCurrentUp(t *testing.T) {
	c := testCluster()
	c.SetCur(0)
	c.SetFloor(2)
	if c.Cur() != 2 {
		t.Fatalf("cur after floor push-up = %d, want 2", c.Cur())
	}
}

func TestSetCapCannotGoBelowFloor(t *testing.T) {
	c := testCluster()
	c.SetFloor(2)
	if got := c.SetCap(0); got != 2 {
		t.Fatalf("cap below floor applied %d, want 2", got)
	}
}

func TestDVFSInvariantUnderRandomOps(t *testing.T) {
	// Property: any sequence of SetCur/SetCap/SetFloor keeps
	// 0 <= floor <= cur <= cap <= top.
	rng := rand.New(rand.NewSource(3))
	f := func(ops []uint8) bool {
		c := testCluster()
		top := c.NumOPPs() - 1
		for _, op := range ops {
			idx := int(op>>2) % (top + 2) // occasionally out of range
			switch op % 3 {
			case 0:
				c.SetCur(idx)
			case 1:
				c.SetCap(idx)
			case 2:
				c.SetFloor(idx)
			}
			if c.Floor() < 0 || c.Floor() > c.Cur() || c.Cur() > c.Cap() || c.Cap() > top {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexForFreqKHz(t *testing.T) {
	c := testCluster()
	tests := []struct {
		khz  int
		want int
	}{
		{0, 0}, {500_000, 0}, {500_001, 1},
		{1_200_000, 2}, {2_000_000, 3}, {9_999_999, 3},
	}
	for _, tt := range tests {
		if got := c.IndexForFreqKHz(tt.khz); got != tt.want {
			t.Errorf("IndexForFreqKHz(%d) = %d, want %d", tt.khz, got, tt.want)
		}
	}
}

func TestResetDVFS(t *testing.T) {
	c := testCluster()
	c.SetFloor(1)
	c.SetCap(2)
	c.SetCur(1)
	c.ResetDVFS()
	if c.Floor() != 0 || c.Cap() != 3 || c.Cur() != 3 {
		t.Fatalf("reset state floor=%d cap=%d cur=%d", c.Floor(), c.Cap(), c.Cur())
	}
}

func TestNewClusterValidation(t *testing.T) {
	good := []OPP{{FreqKHz: 1, VoltMicro: 1}, {FreqKHz: 2, VoltMicro: 2}}
	for _, tt := range []struct {
		name string
		fn   func()
	}{
		{"empty opps", func() { NewCluster("x", KindCPU, 1, 1, nil) }},
		{"unsorted", func() {
			NewCluster("x", KindCPU, 1, 1, []OPP{{FreqKHz: 2}, {FreqKHz: 1}})
		}},
		{"zero cores", func() { NewCluster("x", KindCPU, 0, 1, good) }},
		{"zero ipc", func() { NewCluster("x", KindCPU, 1, 0, good) }},
	} {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tt.fn()
		})
	}
}

func TestOPPConversions(t *testing.T) {
	o := OPP{FreqKHz: 2_704_000, VoltMicro: 1_150_000}
	if o.FreqGHz() != 2.704 {
		t.Errorf("FreqGHz = %g", o.FreqGHz())
	}
	if o.Volts() != 1.15 {
		t.Errorf("Volts = %g", o.Volts())
	}
}

func TestKindString(t *testing.T) {
	if KindCPU.String() != "CPU" || KindGPU.String() != "GPU" {
		t.Fatal("Kind.String wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatal("unknown kind formatting wrong")
	}
}
