package core

import (
	"fmt"

	"nextdvfs/internal/ctrl"
	"nextdvfs/internal/stats"
)

// StateSpace quantizes platform snapshots into tabular state keys. The
// dimensions follow the paper's state list for the Exynos 9810
// implementation: big/LITTLE/GPU frequency positions, FPS_current,
// Target FPS, Power_current, Temperature_big and Temperature_device.
//
// Frequency positions use the current OPP index — "the current
// operating frequency of each cluster ... fed to the RL module as part
// of the states" — while actions move the maxfreq cap relative to that
// operating point (see Action.Apply and DESIGN.md §2).
type StateSpace struct {
	clusterCard []int // cap-index cardinality per cluster, chip order
	fpsQ        stats.Quantizer
	targetQ     stats.Quantizer
	powerQ      stats.Quantizer
	tempQ       stats.Quantizer
}

// StateSpaceConfig sizes the quantized dimensions.
type StateSpaceConfig struct {
	// FPSLevels and TargetLevels quantize the two frame-rate dimensions
	// (the paper's Fig. 6 sweep; granularity 30 ⇒ 3 levels over 0–60).
	FPSLevels    int
	TargetLevels int
	PowerLevels  int
	TempLevels   int
	MaxFPS       float64
	PowerMaxW    float64
	TempMinC     float64
	TempMaxC     float64
}

// DefaultStateSpaceConfig returns the default quantization. The frame
// rate dimensions use 7 levels (≈8.6 FPS bins): coarse enough to train
// fast, fine enough that a 12-FPS QoS shortfall lands in a different
// bin than "target met" — with the paper's coarsest granularity the
// agent cannot see moderate under-provisioning at all (the Fig. 6 sweep
// explores exactly this trade-off).
func DefaultStateSpaceConfig() StateSpaceConfig {
	return StateSpaceConfig{
		FPSLevels:    7,
		TargetLevels: 7,
		PowerLevels:  4,
		TempLevels:   4,
		MaxFPS:       60,
		PowerMaxW:    16,
		TempMinC:     20,
		TempMaxC:     95,
	}
}

// NewStateSpace builds the quantizers for a platform with the given
// per-cluster OPP counts (chip order).
func NewStateSpace(clusterOPPs []int, cfg StateSpaceConfig) *StateSpace {
	if len(clusterOPPs) == 0 {
		panic("core: state space needs at least one cluster")
	}
	for i, n := range clusterOPPs {
		if n <= 0 {
			panic(fmt.Sprintf("core: cluster %d has %d OPPs", i, n))
		}
	}
	card := make([]int, len(clusterOPPs))
	copy(card, clusterOPPs)
	return &StateSpace{
		clusterCard: card,
		fpsQ:        stats.NewQuantizer(0, cfg.MaxFPS, cfg.FPSLevels),
		targetQ:     stats.NewQuantizer(0, cfg.MaxFPS, cfg.TargetLevels),
		powerQ:      stats.NewQuantizer(0, cfg.PowerMaxW, cfg.PowerLevels),
		tempQ:       stats.NewQuantizer(cfg.TempMinC, cfg.TempMaxC, cfg.TempLevels),
	}
}

// Actions returns the action-space size: up/down/nothing per cluster
// (9 on a 3-cluster chip, as the paper enumerates).
func (ss *StateSpace) Actions() int { return 3 * len(ss.clusterCard) }

// Key folds a snapshot and target FPS into a packed state key.
func (ss *StateSpace) Key(snap ctrl.Snapshot, targetFPS float64) StateKey {
	var key uint64
	push := func(v, card int) {
		key = key*uint64(card) + uint64(v)
	}
	for i, c := range snap.Clusters {
		idx := c.CurIdx
		if idx < 0 {
			idx = 0
		}
		if idx >= ss.clusterCard[i] {
			idx = ss.clusterCard[i] - 1
		}
		push(idx, ss.clusterCard[i])
	}
	push(ss.fpsQ.Index(snap.FPS), ss.fpsQ.Levels)
	push(ss.targetQ.Index(targetFPS), ss.targetQ.Levels)
	push(ss.powerQ.Index(snap.PowerW), ss.powerQ.Levels)
	push(ss.tempQ.Index(snap.TempBigC), ss.tempQ.Levels)
	push(ss.tempQ.Index(snap.TempDeviceC), ss.tempQ.Levels)
	return StateKey(key)
}

// Action encodes the paper's per-cluster action list: for cluster j the
// actions are 3j (frequency up), 3j+1 (frequency down) and 3j+2 (do
// nothing). Exactly one action fires per control step.
type Action int

// Decode splits an action into its cluster ordinal and verb
// (0 = up, 1 = down, 2 = nothing).
func (a Action) Decode() (cluster, verb int) { return int(a) / 3, int(a) % 3 }

// Apply performs the action against the actuator, following the
// paper's semantics: "setting operating frequency (up, down and do
// nothing) means to set the maxfreq of the respective PE to that
// operating frequency" — i.e. the new cap is one OPP above/below the
// cluster's CURRENT operating point, not the previous cap. Anchoring to
// the operating point makes every action bite immediately (a cap miles
// above the governor's choice is a dead zone no reward can see through).
func (a Action) Apply(snap ctrl.Snapshot, act ctrl.Actuator) {
	clusterIdx, verb := a.Decode()
	if clusterIdx >= len(snap.Clusters) || verb == 2 {
		return
	}
	c := snap.Clusters[clusterIdx]
	switch verb {
	case 0:
		act.SetCap(c.Name, c.CurIdx+1)
	case 1:
		act.SetCap(c.Name, c.CurIdx-1)
	}
}

// String renders the action ("big freq up", "GPU do nothing", ...).
// Cluster names must be supplied since the action itself only stores
// ordinals.
func (a Action) String() string {
	cluster, verb := a.Decode()
	verbs := [...]string{"freq up", "freq down", "do nothing"}
	return fmt.Sprintf("cluster[%d] %s", cluster, verbs[verb])
}
