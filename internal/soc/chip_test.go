package soc

import "testing"

func TestExynos9810MatchesPaperTables(t *testing.T) {
	chip := Exynos9810()
	if len(chip.Clusters) != 3 {
		t.Fatalf("clusters = %d, want 3", len(chip.Clusters))
	}

	big := chip.Cluster(ClusterBig)
	if big.NumOPPs() != 18 {
		t.Errorf("big OPPs = %d, want 18 (paper: 18 levels)", big.NumOPPs())
	}
	if big.OPPAt(0).FreqKHz != 650_000 || big.MaxOPP().FreqKHz != 2_704_000 {
		t.Errorf("big range = %d..%d kHz, want 650000..2704000",
			big.OPPAt(0).FreqKHz, big.MaxOPP().FreqKHz)
	}
	if big.Cores != 4 {
		t.Errorf("big cores = %d, want 4 (Mongoose 3)", big.Cores)
	}

	little := chip.Cluster(ClusterLITTLE)
	if little.NumOPPs() != 10 {
		t.Errorf("LITTLE OPPs = %d, want 10", little.NumOPPs())
	}
	if little.OPPAt(0).FreqKHz != 455_000 || little.MaxOPP().FreqKHz != 1_794_000 {
		t.Errorf("LITTLE range = %d..%d kHz, want 455000..1794000",
			little.OPPAt(0).FreqKHz, little.MaxOPP().FreqKHz)
	}

	gpu := chip.Cluster(ClusterGPU)
	if gpu.NumOPPs() != 6 {
		t.Errorf("GPU OPPs = %d, want 6", gpu.NumOPPs())
	}
	if gpu.OPPAt(0).FreqKHz != 260_000 || gpu.MaxOPP().FreqKHz != 572_000 {
		t.Errorf("GPU range = %d..%d kHz, want 260000..572000",
			gpu.OPPAt(0).FreqKHz, gpu.MaxOPP().FreqKHz)
	}
	if gpu.Cores != 18 {
		t.Errorf("GPU cores = %d, want 18 (Mali-G72 MP18)", gpu.Cores)
	}
	if gpu.Kind != KindGPU {
		t.Error("GPU cluster kind wrong")
	}

	// The paper's specific intermediate frequencies must be present.
	wantBig := []int{650, 741, 858, 962, 1066, 1170, 1261, 1469, 1586, 1690, 1794, 1924, 2002, 2106, 2314, 2496, 2652, 2704}
	for i, mhz := range wantBig {
		if got := big.OPPAt(i).FreqKHz; got != mhz*1000 {
			t.Errorf("big OPP[%d] = %d kHz, want %d", i, got, mhz*1000)
		}
	}
	wantGPU := []int{260, 299, 338, 455, 546, 572}
	for i, mhz := range wantGPU {
		if got := gpu.OPPAt(i).FreqKHz; got != mhz*1000 {
			t.Errorf("GPU OPP[%d] = %d kHz, want %d", i, got, mhz*1000)
		}
	}
}

func TestVoltageCurveMonotone(t *testing.T) {
	for _, chip := range []*Chip{Exynos9810(), GenericPhone()} {
		for _, c := range chip.Clusters {
			prev := 0
			for i := 0; i < c.NumOPPs(); i++ {
				v := c.OPPAt(i).VoltMicro
				if v <= prev {
					t.Errorf("%s/%s: voltage not strictly increasing at OPP %d (%d <= %d)",
						chip.Name, c.Name, i, v, prev)
				}
				prev = v
			}
			lo, hi := c.OPPAt(0).Volts(), c.MaxOPP().Volts()
			if lo < 0.4 || hi > 1.3 {
				t.Errorf("%s/%s: voltage range %.2f–%.2f V implausible for mobile silicon",
					chip.Name, c.Name, lo, hi)
			}
		}
	}
}

func TestChipClusterLookup(t *testing.T) {
	chip := Exynos9810()
	if c := chip.Cluster(ClusterGPU); c == nil || c.Name != ClusterGPU {
		t.Fatalf("Cluster(%q) = %v", ClusterGPU, c)
	}
	if chip.Cluster("nope") != nil {
		t.Fatal("unknown cluster should be nil")
	}
}

func TestChipResetDVFS(t *testing.T) {
	chip := Exynos9810()
	for _, c := range chip.Clusters {
		c.SetCap(1)
		c.SetCur(0)
	}
	chip.ResetDVFS()
	for _, c := range chip.Clusters {
		if c.Cap() != c.NumOPPs()-1 || c.Cur() != c.NumOPPs()-1 || c.Floor() != 0 {
			t.Errorf("%s not reset: cap=%d cur=%d floor=%d", c.Name, c.Cap(), c.Cur(), c.Floor())
		}
	}
}

func TestGenericPhonePreset(t *testing.T) {
	chip := GenericPhone()
	if len(chip.Clusters) != 3 {
		t.Fatalf("clusters = %d", len(chip.Clusters))
	}
	for _, name := range []string{ClusterBig, ClusterLITTLE, ClusterGPU} {
		if chip.Cluster(name) == nil {
			t.Errorf("missing cluster %q", name)
		}
	}
}
