package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nextdvfs/internal/ctrl"
)

func exynosSpace() *StateSpace {
	return NewStateSpace([]int{18, 10, 6}, DefaultStateSpaceConfig())
}

func snapWith(caps [3]int, fps, target, power, tb, td float64) (ctrl.Snapshot, float64) {
	return ctrl.Snapshot{
		FPS: fps, PowerW: power, TempBigC: tb, TempDeviceC: td, AmbientC: 21,
		Clusters: []ctrl.ClusterView{
			{Name: "big", NumOPPs: 18, CurIdx: caps[0], CapIdx: caps[0]},
			{Name: "LITTLE", NumOPPs: 10, CurIdx: caps[1], CapIdx: caps[1]},
			{Name: "GPU", IsGPU: true, NumOPPs: 6, CurIdx: caps[2], CapIdx: caps[2]},
		},
	}, target
}

func TestActionSpaceIsNinePerPaper(t *testing.T) {
	ss := exynosSpace()
	if ss.Actions() != 9 {
		t.Fatalf("actions = %d, want 9 (3 clusters × up/down/nothing)", ss.Actions())
	}
}

func TestStateKeyInjectivityOverCaps(t *testing.T) {
	// Different cap combinations must map to different keys (all else
	// equal) — the frequency dimensions are the agent's own coordinates.
	ss := exynosSpace()
	seen := map[StateKey][3]int{}
	for b := 0; b < 18; b++ {
		for l := 0; l < 10; l++ {
			for g := 0; g < 6; g++ {
				snap, target := snapWith([3]int{b, l, g}, 30, 30, 4, 50, 40)
				k := ss.Key(snap, target)
				if prev, dup := seen[k]; dup {
					t.Fatalf("collision: %v and %v → %d", prev, [3]int{b, l, g}, k)
				}
				seen[k] = [3]int{b, l, g}
			}
		}
	}
	if len(seen) != 18*10*6 {
		t.Fatalf("distinct keys = %d", len(seen))
	}
}

func TestStateKeyQuantizesFPS(t *testing.T) {
	// With 3 FPS levels (the paper's best granularity), 0 and 5 share a
	// bin but 0 and 59 do not.
	ss := exynosSpace()
	s1, tg := snapWith([3]int{5, 5, 3}, 0, 0, 4, 50, 40)
	s2, _ := snapWith([3]int{5, 5, 3}, 5, 0, 4, 50, 40)
	s3, _ := snapWith([3]int{5, 5, 3}, 59, 0, 4, 50, 40)
	if ss.Key(s1, tg) != ss.Key(s2, tg) {
		t.Fatal("0 and 5 FPS should share a bin at 3 levels")
	}
	if ss.Key(s1, tg) == ss.Key(s3, tg) {
		t.Fatal("0 and 59 FPS must differ")
	}
}

func TestStateKeyWithinMaxStates(t *testing.T) {
	ss := exynosSpace()
	// The cardinality of the full product space.
	maxStates := uint64(ss.fpsQ.Levels) * uint64(ss.targetQ.Levels) *
		uint64(ss.powerQ.Levels) * uint64(ss.tempQ.Levels) * uint64(ss.tempQ.Levels)
	for _, c := range ss.clusterCard {
		maxStates *= uint64(c)
	}
	rng := rand.New(rand.NewSource(15))
	f := func(b, l, g, fpsS, tgS, pS, tbS, tdS uint8) bool {
		snap, target := snapWith(
			[3]int{int(b) % 18, int(l) % 10, int(g) % 6},
			float64(fpsS%61), float64(tgS%61),
			float64(pS)/16, 20+float64(tbS%76), 20+float64(tdS%76),
		)
		return uint64(ss.Key(snap, target)) < maxStates
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestStateKeyClampsOutOfRangeCapIdx(t *testing.T) {
	ss := exynosSpace()
	snap, tg := snapWith([3]int{99, -1, 3}, 30, 30, 4, 50, 40)
	clamped, _ := snapWith([3]int{17, 0, 3}, 30, 30, 4, 50, 40)
	if ss.Key(snap, tg) != ss.Key(clamped, tg) {
		t.Fatal("out-of-range cap indices should clamp")
	}
}

func TestActionDecode(t *testing.T) {
	// Paper order per cluster: up, down, do nothing.
	tests := []struct {
		a       Action
		cluster int
		verb    int
	}{
		{0, 0, 0}, {1, 0, 1}, {2, 0, 2},
		{3, 1, 0}, {4, 1, 1}, {5, 1, 2},
		{6, 2, 0}, {7, 2, 1}, {8, 2, 2},
	}
	for _, tt := range tests {
		c, v := tt.a.Decode()
		if c != tt.cluster || v != tt.verb {
			t.Errorf("action %d decoded (%d,%d), want (%d,%d)", tt.a, c, v, tt.cluster, tt.verb)
		}
	}
}

type recordActuator struct{ caps map[string]int }

func (r *recordActuator) SetCap(c string, i int) { r.caps[c] = i }
func (r *recordActuator) SetFloor(string, int)   {}
func (r *recordActuator) Pin(string, int)        {}

func TestActionApply(t *testing.T) {
	snap, _ := snapWith([3]int{5, 5, 3}, 30, 30, 4, 50, 40)
	rec := &recordActuator{caps: map[string]int{}}

	Action(0).Apply(snap, rec) // big up
	if rec.caps["big"] != 6 {
		t.Fatalf("big up → %d, want 6", rec.caps["big"])
	}
	Action(7).Apply(snap, rec) // GPU down
	if rec.caps["GPU"] != 2 {
		t.Fatalf("GPU down → %d, want 2", rec.caps["GPU"])
	}
	// Do-nothing actions must not touch the actuator.
	before := len(rec.caps)
	Action(2).Apply(snap, rec)
	Action(5).Apply(snap, rec)
	Action(8).Apply(snap, rec)
	if len(rec.caps) != before {
		t.Fatal("do-nothing action actuated")
	}
}

func TestActionStringIsReadable(t *testing.T) {
	if Action(0).String() == "" || Action(8).String() == "" {
		t.Fatal("actions should render")
	}
}

func TestNewStateSpaceValidation(t *testing.T) {
	for _, bad := range [][]int{nil, {}, {0}, {5, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %v", bad)
				}
			}()
			NewStateSpace(bad, DefaultStateSpaceConfig())
		}()
	}
}

func TestFrameWindowModeTargeting(t *testing.T) {
	w := NewFrameWindow(160, 40)
	// Warmup: target follows the latest sample.
	w.Push(42)
	if w.Target() != 42 {
		t.Fatalf("warmup target = %d, want 42", w.Target())
	}
	// Fill with a bimodal pattern: 100 samples at 60, 60 at 0 → mode 60.
	for i := 0; i < 100; i++ {
		w.Push(60)
	}
	for i := 0; i < 59; i++ {
		w.Push(0)
	}
	if w.Target() != 60 {
		t.Fatalf("target = %d, want 60", w.Target())
	}
	// Another 100 zeros swings the mode to 0 (user went idle).
	for i := 0; i < 100; i++ {
		w.Push(0)
	}
	if w.Target() != 0 {
		t.Fatalf("target after idle = %d, want 0", w.Target())
	}
}

func TestFrameWindowReset(t *testing.T) {
	w := NewFrameWindow(160, 40)
	for i := 0; i < 160; i++ {
		w.Push(60)
	}
	w.Reset()
	if w.Len() != 0 || w.Target() != 0 {
		t.Fatal("reset failed")
	}
}

func TestFrameWindowRoundsSamples(t *testing.T) {
	w := NewFrameWindow(10, 1)
	w.Push(59.7)
	if w.Target() != 60 {
		t.Fatalf("59.7 should round to 60, got %d", w.Target())
	}
	// Negative FPS clamps to 0 (fresh window so the QoS-safe mode
	// tie-break cannot pick an older, higher sample).
	w2 := NewFrameWindow(10, 1)
	w2.Push(-3)
	if w2.Target() != 0 {
		t.Fatal("negative FPS should clamp to 0")
	}
}
