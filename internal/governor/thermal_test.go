package governor

import (
	"testing"

	"nextdvfs/internal/ctrl"
)

func thermalSnap(tempBig float64, bigCur, gpuCur int) ctrl.Snapshot {
	return ctrl.Snapshot{
		TempBigC: tempBig,
		Clusters: []ctrl.ClusterView{
			{Name: "big", NumOPPs: 18, CurIdx: bigCur, CapIdx: 17},
			{Name: "LITTLE", NumOPPs: 10, CurIdx: 5, CapIdx: 9},
			{Name: "GPU", IsGPU: true, NumOPPs: 6, CurIdx: gpuCur, CapIdx: 5},
		},
	}
}

func TestThermalCapTripsAboveThreshold(t *testing.T) {
	g := NewThermalCap()
	act := newFakeActuator()
	g.Control(thermalSnap(80, 12, 4), act)
	if act.caps["big"] != 11 {
		t.Fatalf("big cap = %v, want one step down (11)", act.caps)
	}
	if act.caps["GPU"] != 3 {
		t.Fatalf("GPU cap = %v, want 3", act.caps)
	}
	if _, touched := act.caps["LITTLE"]; touched {
		t.Fatal("LITTLE must not be thermally capped (cool cluster)")
	}
}

func TestThermalCapHysteresis(t *testing.T) {
	g := NewThermalCap()
	act := newFakeActuator()
	// Between release and trip: hold (no actuation at all).
	g.Control(thermalSnap(70, 12, 4), act)
	if len(act.caps) != 0 {
		t.Fatalf("mid-band actuation: %v", act.caps)
	}
}

func TestThermalCapReleasesBelowRelease(t *testing.T) {
	g := NewThermalCap()
	hot := newFakeActuator()
	g.Control(thermalSnap(80, 12, 4), hot) // capped once
	cool := newFakeActuator()
	g.Control(thermalSnap(60, 11, 3), cool)
	// One step of release; the final release fully uncaps.
	if got := cool.caps["big"]; got != 17 {
		// Single capped step → release path sets cur+1 then full uncap.
		t.Fatalf("big release cap = %d, want full uncap 17", got)
	}
}

func TestThermalCapNeverBelowBottom(t *testing.T) {
	g := NewThermalCap()
	act := newFakeActuator()
	g.Control(thermalSnap(90, 0, 0), act)
	if len(act.caps) != 0 {
		t.Fatalf("capping below OPP 0 attempted: %v", act.caps)
	}
}

func TestThermalCapDefaultsAndReset(t *testing.T) {
	g := NewThermalCap()
	if g.Name() != "thermalcap" || g.ControlIntervalUS() != 500_000 {
		t.Fatal("bad defaults")
	}
	act := newFakeActuator()
	g.Control(thermalSnap(80, 12, 4), act)
	g.Reset()
	cool := newFakeActuator()
	g.Control(thermalSnap(60, 11, 3), cool)
	if len(cool.caps) != 0 {
		t.Fatal("reset should forget capping debt")
	}
}
