package governor

import (
	"testing"

	"nextdvfs/internal/soc"
)

func obsFor(chip *soc.Chip, norm map[string]float64) []Observation {
	var obs []Observation
	for _, c := range chip.Clusters {
		n := norm[c.Name]
		u := 0.0
		if c.MaxOPP().FreqKHz > 0 {
			u = n * float64(c.MaxOPP().FreqKHz) / float64(c.CurOPP().FreqKHz)
			if u > 1 {
				u = 1
			}
		}
		obs = append(obs, Observation{Cluster: c, Util: u, NormUtil: n})
	}
	return obs
}

func TestSchedutilFormulaPicksHeadroomFrequency(t *testing.T) {
	chip := soc.Exynos9810()
	g := &Schedutil{}
	big := chip.Cluster(soc.ClusterBig)

	// normUtil 0.5 → target = 1.25*0.5*2704 = 1690 MHz exactly on an OPP.
	// The drop from the boot OPP lands once the down-rate limit expires.
	obs := obsFor(chip, map[string]float64{soc.ClusterBig: 0.5})
	g.Decide(0, obs)
	g.Decide(schedDownRateLimitUS, obs)
	if got := big.CurOPP().FreqKHz; got != 1_690_000 {
		t.Fatalf("big freq = %d kHz, want 1690000", got)
	}
}

func TestSchedutilZeroUtilGoesToFloorEventually(t *testing.T) {
	chip := soc.Exynos9810()
	g := &Schedutil{}
	big := chip.Cluster(soc.ClusterBig)
	// Start hot.
	g.Decide(0, obsFor(chip, map[string]float64{soc.ClusterBig: 1.0}))
	if big.Cur() != big.NumOPPs()-1 {
		t.Fatal("full util should pick top OPP")
	}
	// Zero util: the first decisions are held back by the down-rate
	// limit, then the governor falls to the floor.
	for now := int64(10_000); now <= 500_000; now += 10_000 {
		g.Decide(now, obsFor(chip, map[string]float64{soc.ClusterBig: 0.0}))
	}
	if big.Cur() != 0 {
		t.Fatalf("idle big OPP = %d, want 0", big.Cur())
	}
}

func TestSchedutilDownRateLimitDelaysDrop(t *testing.T) {
	chip := soc.Exynos9810()
	g := &Schedutil{}
	big := chip.Cluster(soc.ClusterBig)

	g.Decide(0, obsFor(chip, map[string]float64{soc.ClusterBig: 1.0}))
	top := big.Cur()
	// 10 ms later the load vanishes: must still hold (rate limit), up
	// to the last decision before the limit expires.
	g.Decide(10_000, obsFor(chip, map[string]float64{soc.ClusterBig: 0.0}))
	g.Decide(10_000+schedDownRateLimitUS-1, obsFor(chip, map[string]float64{soc.ClusterBig: 0.0}))
	if big.Cur() != top {
		t.Fatal("down-switch should be rate limited")
	}
	// Once the limit expires it may drop.
	g.Decide(10_000+schedDownRateLimitUS, obsFor(chip, map[string]float64{soc.ClusterBig: 0.0}))
	if big.Cur() == top {
		t.Fatal("down-switch should have happened after the rate limit")
	}
}

func TestSchedutilRespectsCap(t *testing.T) {
	chip := soc.Exynos9810()
	g := &Schedutil{}
	big := chip.Cluster(soc.ClusterBig)
	big.SetCap(5) // the Next agent capped the cluster
	g.Decide(0, obsFor(chip, map[string]float64{soc.ClusterBig: 1.0}))
	if big.Cur() > 5 {
		t.Fatalf("schedutil exceeded cap: %d", big.Cur())
	}
}

func TestInputBoostRaisesCPUFloorsOnly(t *testing.T) {
	chip := soc.Exynos9810()
	g := &Schedutil{}
	g.OnInput(0)
	g.Decide(1000, obsFor(chip, nil))
	big := chip.Cluster(soc.ClusterBig)
	little := chip.Cluster(soc.ClusterLITTLE)
	gpu := chip.Cluster(soc.ClusterGPU)
	if big.Floor() == 0 || little.Floor() == 0 {
		t.Fatal("boost should raise CPU floors")
	}
	if gpu.Floor() != 0 {
		t.Fatal("boost must not touch the GPU floor")
	}
	// Boost expiry restores floors.
	g.Decide(1_000_000, obsFor(chip, nil))
	if big.Floor() != 0 || little.Floor() != 0 {
		t.Fatalf("floors not restored after boost: big=%d little=%d", big.Floor(), little.Floor())
	}
}

func TestInputBoostKeepsFrequencyHighAtZeroLoad(t *testing.T) {
	// The waste the paper measures: touches keep frequency up while FPS
	// may be near zero.
	chip := soc.Exynos9810()
	g := &Schedutil{}
	big := chip.Cluster(soc.ClusterBig)
	g.OnInput(0)
	for now := int64(1000); now <= 150_000; now += 10_000 {
		g.Decide(now, obsFor(chip, map[string]float64{soc.ClusterBig: 0.05}))
	}
	if big.CurOPP().FreqKHz < 1_000_000 {
		t.Fatalf("boosted big freq = %d kHz, expected >= boost floor", big.CurOPP().FreqKHz)
	}
}

func TestSchedutilReset(t *testing.T) {
	chip := soc.Exynos9810()
	g := &Schedutil{}
	g.OnInput(0)
	g.Decide(1000, obsFor(chip, nil))
	// Reset pairs with a chip DVFS reset (as the engine does).
	g.Reset()
	chip.ResetDVFS()
	// No boost state may survive: a decide long after must not raise
	// floors again.
	g.Decide(10_000_000, obsFor(chip, map[string]float64{}))
	if chip.Cluster(soc.ClusterBig).Floor() != 0 {
		t.Fatal("reset should clear boost state")
	}
}
