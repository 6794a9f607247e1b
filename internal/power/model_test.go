package power

import (
	"testing"

	"nextdvfs/internal/soc"
)

func TestClusterPowerMonotoneInFrequency(t *testing.T) {
	chip := soc.Exynos9810()
	m := Exynos9810Model()
	for _, c := range chip.Clusters {
		prev := -1.0
		for i := 0; i < c.NumOPPs(); i++ {
			c.SetCap(c.NumOPPs() - 1)
			c.SetCur(i)
			p := m.ClusterPower(c, 1.0, 40)
			if p <= prev {
				t.Errorf("%s: power not increasing at OPP %d (%.3f <= %.3f)", c.Name, i, p, prev)
			}
			prev = p
		}
	}
}

func TestClusterPowerMonotoneInUtil(t *testing.T) {
	chip := soc.Exynos9810()
	m := Exynos9810Model()
	big := chip.Cluster(soc.ClusterBig)
	big.SetCur(10)
	prev := -1.0
	for u := 0.0; u <= 1.0; u += 0.1 {
		p := m.ClusterPower(big, u, 40)
		if p < prev {
			t.Errorf("power decreased with util at u=%.1f", u)
		}
		prev = p
	}
}

func TestLeakageGrowsWithTemperature(t *testing.T) {
	chip := soc.Exynos9810()
	m := Exynos9810Model()
	big := chip.Cluster(soc.ClusterBig)
	big.SetCur(0)
	cold := m.ClusterPower(big, 0, 25)
	hot := m.ClusterPower(big, 0, 85)
	if hot <= cold {
		t.Fatalf("leakage should grow with temperature: %.3f W at 25°C vs %.3f W at 85°C", cold, hot)
	}
	// Linearized exponential: 60 °C above ref at ~1.1 %/°C ≈ +66 %.
	if hot > cold*2.2 {
		t.Fatalf("leakage growth implausible: %.3f -> %.3f", cold, hot)
	}
}

func TestUtilizationClamped(t *testing.T) {
	chip := soc.Exynos9810()
	m := Exynos9810Model()
	big := chip.Cluster(soc.ClusterBig)
	if m.ClusterPower(big, -0.5, 40) != m.ClusterPower(big, 0, 40) {
		t.Error("negative util should clamp to 0")
	}
	if m.ClusterPower(big, 1.5, 40) != m.ClusterPower(big, 1, 40) {
		t.Error("util > 1 should clamp to 1")
	}
}

func TestExynosEnvelopeMatchesPaper(t *testing.T) {
	// The Note 9 traces in the paper show device power peaking above
	// 10 W and averaging 2-3.5 W. Check the model's static envelope:
	// all-max power should be roughly 10-16 W including the base.
	chip := soc.Exynos9810()
	m := Exynos9810Model()
	total := m.BaseW
	for _, c := range chip.Clusters {
		c.SetCur(c.NumOPPs() - 1)
		total += m.ClusterPower(c, 1.0, 70)
	}
	if total < 9 || total > 18 {
		t.Fatalf("all-max device power = %.2f W, want 9-18 W (paper peaks >10 W)", total)
	}

	// Idle floor: everything at min OPP, zero util, should be ~1-2 W.
	idle := m.BaseW
	for _, c := range chip.Clusters {
		c.SetCur(0)
		idle += m.ClusterPower(c, 0, 30)
	}
	if idle < 0.9 || idle > 3 {
		t.Fatalf("idle device power = %.2f W, want ~1-3 W", idle)
	}
}

func TestBigClusterDominates(t *testing.T) {
	// Paper: "the big CPU cores consume the most energy" among CPUs.
	chip := soc.Exynos9810()
	m := Exynos9810Model()
	big := chip.Cluster(soc.ClusterBig)
	little := chip.Cluster(soc.ClusterLITTLE)
	big.SetCur(big.NumOPPs() - 1)
	little.SetCur(little.NumOPPs() - 1)
	if m.ClusterPower(big, 1, 50) <= m.ClusterPower(little, 1, 50)*2 {
		t.Fatal("big cluster should consume far more than LITTLE at max")
	}
}

func TestUnknownClusterPanics(t *testing.T) {
	m := NewModel(0, map[string]Coeff{})
	c := soc.NewCluster("mystery", soc.KindCPU, 1, 1, []soc.OPP{{FreqKHz: 1000, VoltMicro: 1000}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown cluster")
		}
	}()
	m.ClusterPower(c, 1, 25)
}

func TestMeter(t *testing.T) {
	var e Meter
	if e.AvgW() != 0 {
		t.Fatal("empty meter avg should be 0")
	}
	e.Accumulate(2.0, 1.0) // 2 J
	e.Accumulate(4.0, 1.0) // 4 J
	if e.EnergyJ != 6.0 {
		t.Fatalf("energy = %g J, want 6", e.EnergyJ)
	}
	if e.AvgW() != 3.0 {
		t.Fatalf("avg = %g W, want 3", e.AvgW())
	}
	if e.Seconds() != 2.0 {
		t.Fatalf("seconds = %g", e.Seconds())
	}
	e.Reset()
	if e.EnergyJ != 0 || e.AvgW() != 0 {
		t.Fatal("reset failed")
	}
}

func TestCoeffLookup(t *testing.T) {
	m := Exynos9810Model()
	if _, ok := m.Coeff(soc.ClusterBig); !ok {
		t.Fatal("big coeffs missing")
	}
	if _, ok := m.Coeff("nope"); ok {
		t.Fatal("unexpected coeffs for unknown cluster")
	}
}
