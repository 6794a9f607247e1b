package soc

// Canonical cluster names used by the Exynos 9810 preset and expected by
// the Next agent's default configuration.
const (
	ClusterBig    = "big"
	ClusterLITTLE = "LITTLE"
	ClusterGPU    = "GPU"
)

// Chip is a set of DVFS clusters sharing one die. Cluster order is
// stable and significant: the Next agent's action space enumerates
// clusters in chip order.
type Chip struct {
	Name     string
	Clusters []*Cluster
}

// Cluster returns the cluster with the given name, or nil if absent.
func (ch *Chip) Cluster(name string) *Cluster {
	for _, c := range ch.Clusters {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ResetDVFS restores every cluster to boot state.
func (ch *Chip) ResetDVFS() {
	for _, c := range ch.Clusters {
		c.ResetDVFS()
	}
}

// voltageCurve synthesizes a monotone V/f curve for an ascending
// frequency table: V(f) = vMin + (vMax−vMin)·x^1.6 with x the normalized
// frequency. The 1.6 exponent bends the curve upward at high frequency,
// matching the shape of published mobile DVFS tables (voltage rises
// steeply near fmax, which is what makes the top OPPs so expensive and
// capping them so profitable).
func voltageCurve(freqsMHz []int, vMinMicro, vMaxMicro int) []OPP {
	n := len(freqsMHz)
	opps := make([]OPP, n)
	fMin := float64(freqsMHz[0])
	fMax := float64(freqsMHz[n-1])
	for i, f := range freqsMHz {
		x := 0.0
		if fMax > fMin {
			x = (float64(f) - fMin) / (fMax - fMin)
		}
		// x^1.6 without math.Pow in a loop-friendly way is not worth the
		// obscurity; the preset is built once.
		v := float64(vMinMicro) + (float64(vMaxMicro)-float64(vMinMicro))*pow16(x)
		opps[i] = OPP{FreqKHz: f * 1000, VoltMicro: int(v)}
	}
	return opps
}

// pow16 computes x^1.6 for x in [0,1] as x * x^0.6, with x^0.6 via
// exp/log avoided: we use the identity x^0.6 = (x^3)^0.2 ≈ sqrt(sqrt(x))
// blends poorly, so just use math.Pow at preset-build time.
func pow16(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return powf(x, 1.6)
}

// Exynos9810 returns the Samsung Galaxy Note 9 platform exactly as the
// paper describes it: 4 Mongoose 3 big cores (18 OPPs, 650–2704 MHz),
// 4 Cortex-A55 LITTLE cores (10 OPPs, 455–1794 MHz) and the Mali-G72
// MP18 GPU (6 OPPs, 260–572 MHz).
func Exynos9810() *Chip {
	// Paper lists tables descending; stored ascending.
	bigMHz := []int{650, 741, 858, 962, 1066, 1170, 1261, 1469, 1586, 1690, 1794, 1924, 2002, 2106, 2314, 2496, 2652, 2704}
	littleMHz := []int{455, 598, 715, 832, 949, 1053, 1248, 1456, 1690, 1794}
	gpuMHz := []int{260, 299, 338, 455, 546, 572}

	return &Chip{
		Name: "Exynos 9810",
		Clusters: []*Cluster{
			NewCluster(ClusterBig, KindCPU, 4, 2.2, voltageCurve(bigMHz, 600_000, 1_150_000)),
			NewCluster(ClusterLITTLE, KindCPU, 4, 1.0, voltageCurve(littleMHz, 550_000, 950_000)),
			NewCluster(ClusterGPU, KindGPU, 18, 1.0, voltageCurve(gpuMHz, 600_000, 900_000)),
		},
	}
}

// Snapdragon855 returns a Snapdragon-855-class flagship: 4 Kryo 485
// Gold cores (21 OPPs, 710–2841 MHz, the prime core's table), 4 Kryo
// 485 Silver cores (14 OPPs, 576–1785 MHz) and an Adreno-640-class GPU
// (6 OPPs, 257–675 MHz). Built on a 7 nm process, its voltage rails sit
// below the Exynos 9810's 10 nm tables.
func Snapdragon855() *Chip {
	bigMHz := []int{710, 825, 940, 1056, 1171, 1286, 1401, 1497, 1612, 1708, 1804, 1920, 2016, 2131, 2227, 2323, 2419, 2534, 2649, 2745, 2841}
	littleMHz := []int{576, 672, 768, 883, 960, 1056, 1152, 1248, 1344, 1459, 1555, 1632, 1708, 1785}
	gpuMHz := []int{257, 345, 427, 499, 585, 675}

	return &Chip{
		Name: "Snapdragon 855",
		Clusters: []*Cluster{
			NewCluster(ClusterBig, KindCPU, 4, 2.3, voltageCurve(bigMHz, 570_000, 1_050_000)),
			NewCluster(ClusterLITTLE, KindCPU, 4, 1.1, voltageCurve(littleMHz, 520_000, 880_000)),
			NewCluster(ClusterGPU, KindGPU, 16, 1.0, voltageCurve(gpuMHz, 580_000, 860_000)),
		},
	}
}

// Mid6 returns a mid-range two-CPU-cluster SoC (Snapdragon-6-series /
// Dimensity-class): 2 performance cores topping out at 2.0 GHz, 6
// efficiency cores and a small GPU, all with short OPP tables. It is
// the budget end of the platform sweep — less headroom to cap, a
// smaller action space for the agent.
func Mid6() *Chip {
	bigMHz := []int{633, 902, 1113, 1401, 1555, 1747, 1901, 2002}
	littleMHz := []int{300, 576, 748, 998, 1209, 1440, 1612, 1708}
	gpuMHz := []int{180, 267, 355, 430, 565}

	return &Chip{
		Name: "Mid6",
		Clusters: []*Cluster{
			NewCluster(ClusterBig, KindCPU, 2, 2.0, voltageCurve(bigMHz, 560_000, 1_000_000)),
			NewCluster(ClusterLITTLE, KindCPU, 6, 1.0, voltageCurve(littleMHz, 520_000, 900_000)),
			NewCluster(ClusterGPU, KindGPU, 10, 1.0, voltageCurve(gpuMHz, 560_000, 840_000)),
		},
	}
}

// GenericPhone returns a small three-cluster platform with short OPP
// tables. It exists for tests that need a tractable state space and to
// prove the agent is not hard-coded to the Exynos preset.
func GenericPhone() *Chip {
	bigMHz := []int{600, 1000, 1400, 1800, 2200}
	littleMHz := []int{400, 800, 1200, 1600}
	gpuMHz := []int{200, 400, 600}
	return &Chip{
		Name: "GenericPhone",
		Clusters: []*Cluster{
			NewCluster(ClusterBig, KindCPU, 4, 2.0, voltageCurve(bigMHz, 600_000, 1_100_000)),
			NewCluster(ClusterLITTLE, KindCPU, 4, 1.0, voltageCurve(littleMHz, 550_000, 900_000)),
			NewCluster(ClusterGPU, KindGPU, 8, 1.0, voltageCurve(gpuMHz, 600_000, 850_000)),
		},
	}
}
