package governor

import (
	"testing"

	"nextdvfs/internal/ctrl"
)

// fakeActuator records controller actuations.
type fakeActuator struct {
	caps, floors, pins map[string]int
}

func newFakeActuator() *fakeActuator {
	return &fakeActuator{caps: map[string]int{}, floors: map[string]int{}, pins: map[string]int{}}
}

func (f *fakeActuator) SetCap(c string, i int)   { f.caps[c] = i }
func (f *fakeActuator) SetFloor(c string, i int) { f.floors[c] = i }
func (f *fakeActuator) Pin(c string, i int)      { f.pins[c] = i }

// linearPower is a simple monotone power estimator for tests.
func linearPower(cluster string, idx int, util float64) float64 {
	base := map[string]float64{"big": 1.0, "LITTLE": 0.2, "GPU": 0.8}[cluster]
	return base * float64(idx+1) * (0.3 + 0.7*util)
}

func gameSnapshot(fps float64, bigNorm, gpuNorm float64) ctrl.Snapshot {
	return ctrl.Snapshot{
		NowUS: 0, FPS: fps, AppName: "lineage2revolution", AppClassGame: true,
		Clusters: []ctrl.ClusterView{
			{Name: "big", NumOPPs: 6, OPPKHz: []int{650_000, 1_000_000, 1_400_000, 1_800_000, 2_200_000, 2_704_000}, NormUtil: bigNorm},
			{Name: "LITTLE", NumOPPs: 4, OPPKHz: []int{455_000, 800_000, 1_200_000, 1_794_000}, NormUtil: 0.2},
			{Name: "GPU", IsGPU: true, NumOPPs: 6, OPPKHz: []int{260_000, 299_000, 338_000, 455_000, 546_000, 572_000}, NormUtil: gpuNorm},
		},
	}
}

func feedEpoch(g *IntQoSPM, snap ctrl.Snapshot, samples int) {
	for i := 0; i < samples; i++ {
		g.Observe(snap)
	}
}

func TestIntQoSPinsSufficientPairForGame(t *testing.T) {
	g := NewIntQoSPM(linearPower)
	g.AppChanged("lineage2revolution", true)

	// Game at 60 FPS using 60 % of big capacity and 80 % of GPU.
	snap := gameSnapshot(60, 0.6, 0.8)
	feedEpoch(g, snap, 10)
	act := newFakeActuator()
	g.Control(snap, act)

	bigPin, ok := act.pins["big"]
	if !ok {
		t.Fatal("big not pinned")
	}
	gpuPin, ok := act.pins["GPU"]
	if !ok {
		t.Fatal("GPU not pinned")
	}
	// Required big capacity ≈ 0.6/0.9 = 0.67 → ≥1800 MHz (idx 3).
	if bigPin < 3 {
		t.Fatalf("big pinned at idx %d, too low to sustain load", bigPin)
	}
	// Required GPU capacity ≈ 0.89 → ≥546 MHz (idx 4).
	if gpuPin < 4 {
		t.Fatalf("GPU pinned at idx %d, too low to sustain load", gpuPin)
	}
	if _, ok := act.pins["LITTLE"]; !ok {
		t.Fatal("LITTLE should be pinned proportionally")
	}
}

func TestIntQoSSavesPowerAtLowDemand(t *testing.T) {
	g := NewIntQoSPM(linearPower)
	g.AppChanged("pubgmobile", true)

	// Menu screen: 30 FPS at modest load.
	snap := gameSnapshot(30, 0.15, 0.2)
	feedEpoch(g, snap, 10)
	act := newFakeActuator()
	g.Control(snap, act)

	if act.pins["big"] > 2 {
		t.Fatalf("big pinned at %d for light load; averaging should pick a low pair", act.pins["big"])
	}
	if act.pins["GPU"] > 2 {
		t.Fatalf("GPU pinned at %d for light load", act.pins["GPU"])
	}
}

func TestIntQoSReleasesNonGames(t *testing.T) {
	g := NewIntQoSPM(linearPower)
	g.AppChanged("facebook", false)
	snap := gameSnapshot(30, 0.5, 0.5)
	snap.AppClassGame = false
	act := newFakeActuator()
	g.Control(snap, act)
	if len(act.pins) != 0 {
		t.Fatal("non-game must not be pinned")
	}
	for _, c := range []string{"big", "LITTLE", "GPU"} {
		if got, ok := act.caps[c]; !ok || got != snapNumOPPs(snap, c)-1 {
			t.Fatalf("%s cap not released: %v", c, act.caps)
		}
		if got := act.floors[c]; got != 0 {
			t.Fatalf("%s floor not released", c)
		}
	}
	// Release happens once, not every epoch.
	act2 := newFakeActuator()
	g.Control(snap, act2)
	if len(act2.caps) != 0 {
		t.Fatal("release should be one-shot")
	}
}

func snapNumOPPs(s ctrl.Snapshot, name string) int {
	for _, c := range s.Clusters {
		if c.Name == name {
			return c.NumOPPs
		}
	}
	return 0
}

func TestIntQoSDoesNotExploitIdlePhases(t *testing.T) {
	// The paper's critique of Int. QoS PM: it has no notion of user
	// interaction, so once it has sized the pins for the game's demand
	// it keeps them through idle/loading phases. After a 60 FPS epoch,
	// feed an all-idle epoch (FPS ≈ 0, filtered as non-demand): the
	// sticky target must hold the pins near the demand level instead of
	// collapsing to minimum the way Next's target-FPS mode does.
	g := NewIntQoSPM(linearPower)
	g.AppChanged("lineage2revolution", true)
	feedEpoch(g, gameSnapshot(60, 0.6, 0.8), 10)
	actHi := newFakeActuator()
	g.Control(gameSnapshot(60, 0.6, 0.8), actHi)

	// All-idle epoch: every sample filtered → no action at all.
	feedEpoch(g, gameSnapshot(0, 0.02, 0.02), 10)
	actIdle := newFakeActuator()
	g.Control(gameSnapshot(0, 0.02, 0.02), actIdle)
	if len(actIdle.pins) != 0 {
		t.Fatalf("idle epoch should hold previous pins, got %v", actIdle.pins)
	}

	// A throttled epoch (FPS 40 because someone capped it) must not
	// drag the target down: the sticky demand keeps the big pin at or
	// above the demand-sized level.
	feedEpoch(g, gameSnapshot(40, 0.4, 0.55), 10)
	actThrottled := newFakeActuator()
	g.Control(gameSnapshot(40, 0.4, 0.55), actThrottled)
	if p, ok := actThrottled.pins["GPU"]; ok && p < actHi.pins["GPU"]-1 {
		t.Fatalf("throttled epoch collapsed GPU pin: %d vs demand-sized %d", p, actHi.pins["GPU"])
	}
}

func TestIntQoSNoSamplesNoAction(t *testing.T) {
	g := NewIntQoSPM(linearPower)
	g.AppChanged("pubgmobile", true)
	act := newFakeActuator()
	g.Control(gameSnapshot(60, 0.5, 0.5), act)
	if len(act.pins) != 0 {
		t.Fatal("no observations yet — must not act")
	}
}

func TestIntQoSInterfaceContract(t *testing.T) {
	var c ctrl.Controller = NewIntQoSPM(linearPower)
	if c.Name() != "intqospm" {
		t.Fatal("name wrong")
	}
	if c.ObserveIntervalUS() <= 0 || c.ControlIntervalUS() <= 0 {
		t.Fatal("intervals must be positive")
	}
	c.Reset()
}

func TestNewIntQoSPMRequiresEstimator(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic without estimator")
		}
	}()
	NewIntQoSPM(nil)
}
