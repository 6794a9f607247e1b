package core

// PPDW computes the paper's performance-per-degree-watt metric (Eq. 1):
//
//	PPDW_i = FPS_i / (ΔT × P_i),  ΔT = T_i − T_a
//
// Degenerate denominators are floored (ΔT at 0.5 K, P at 0.1 W): on
// real hardware the sensor never reads exactly ambient while the rail
// draws nonzero power, and the floor keeps the metric finite during the
// first instants of a cold simulation.
func PPDW(fps, powerW, tempC, ambientC float64) float64 {
	dT := tempC - ambientC
	if dT < 0.5 {
		dT = 0.5
	}
	if powerW < 0.1 {
		powerW = 0.1
	}
	return fps / (dT * powerW)
}

// Bounds are the PPDW_worst / PPDW_best anchors of Eq. 2: the worst
// value comes from the least FPS (1) at maximum power and temperature;
// the best from maximum FPS at the least plausible power and
// temperature rise.
type Bounds struct {
	Worst float64
	Best  float64
}

// NewBounds derives the anchors from platform extremes.
//
//	worst = FPS_least(=1) / ((Tmax−Ta) × Pmax)
//	best  = FPS_max / ((Tleast−Ta) × Pleast)
func NewBounds(fpsMax, pMaxW, pLeastW, tMaxC, tLeastC, ambientC float64) Bounds {
	return Bounds{
		Worst: PPDW(1, pMaxW, tMaxC, ambientC),
		Best:  PPDW(fpsMax, pLeastW, tLeastC, ambientC),
	}
}

// RewardConfig shapes the scalar reward from PPDW and the target-FPS
// goal. Eq. 4 asks the agent to maximize PPDW while achieving
// FPS_current = TargetFPS; raw PPDW is zero at FPS 0 (no gradient at
// idle) and silent about overshoot, so the reward combines a squashed
// PPDW term with a target-miss penalty (see DESIGN.md §2 for the
// interpretation argument).
type RewardConfig struct {
	// Kappa weights the undershoot penalty max(0, Target − FPS)/60.
	// Only undershoot is penalized: the 4 s frame window lags the
	// user's interaction, so at the start of a burst the mode-derived
	// target is stale (often 0) and punishing "rendering more than the
	// stale target" would strangle exactly the frames the user is
	// waiting for. Overshoot is already discouraged through PPDW's
	// power and temperature denominators.
	Kappa float64
	// Squash is the soft-normalization constant c in ppdw/(ppdw+c),
	// mapping PPDW's open-ended scale into [0,1) without needing exact
	// platform bounds.
	Squash float64
	// FPSFloor substitutes for FPS in the PPDW numerator so that an
	// idle session (target 0, fps 0) still prefers lower power/heat —
	// consistent with the paper's PPDW_worst using FPS_least = 1.
	FPSFloor float64
	// PPW switches the metric to plain performance-per-watt (no ΔT
	// term) — the ablation that motivates the paper's PPDW: "for a
	// mobile platform ... trying to maximize PPW is not enough".
	PPW bool
}

// DefaultRewardConfig returns the shaping used in the experiments.
func DefaultRewardConfig() RewardConfig {
	return RewardConfig{Kappa: 0.45, Squash: 0.12, FPSFloor: 1}
}

// Reward computes the shaped reward for a measurement against a target.
func (rc RewardConfig) Reward(fps, targetFPS, powerW, tempC, ambientC float64) float64 {
	eff := fps
	if eff < rc.FPSFloor {
		eff = rc.FPSFloor
	}
	var metric float64
	if rc.PPW {
		// Ablation: performance per watt, thermally blind. Rescaled so
		// PPW (≈10× PPDW's magnitude at ΔT ≈ 10 K) lands in a
		// comparable range for the same squash constant.
		p := powerW
		if p < 0.1 {
			p = 0.1
		}
		metric = eff / p / 10
	} else {
		metric = PPDW(eff, powerW, tempC, ambientC)
	}
	norm := metric / (metric + rc.Squash)
	short := targetFPS - fps
	if short < 0 {
		short = 0
	}
	return norm - rc.Kappa*short/60.0
}
