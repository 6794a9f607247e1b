// Package cloud models Section IV-C of the paper: offloading agent
// training to a cloud server and sharing learned Q-tables across a
// fleet of devices with federated averaging.
//
// The paper measured training on an Intel Xeon E7-8860V3 server to be
// roughly an order of magnitude faster than on-device (Fig. 6: 67→7 s,
// 312→73 s across quantization levels) with at most 4 s of round-trip
// communication overhead. This package reproduces that cost model and
// implements the visit-weighted Q-table merge a federated deployment
// would run.
package cloud

import (
	"fmt"
	"sort"

	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
	"nextdvfs/internal/rollout"
)

// TrainerConfig is the cloud cost model.
type TrainerConfig struct {
	// Speedup is how much faster the cloud trains than the device
	// (cloud wall time = device time / Speedup).
	Speedup float64
	// CommOverheadUS is the to-and-fro transfer overhead per training
	// round (the paper observed a 4 s maximum).
	CommOverheadUS int64
}

// DefaultTrainerConfig matches the paper's observations.
func DefaultTrainerConfig() TrainerConfig {
	return TrainerConfig{Speedup: 9.5, CommOverheadUS: 4_000_000}
}

// WallTimeUS converts an on-device training duration into the cloud
// wall time the user experiences (compute at cloud speed plus the
// communication overhead).
func (c TrainerConfig) WallTimeUS(onDeviceUS int64) int64 {
	if c.Speedup <= 0 {
		return onDeviceUS + c.CommOverheadUS
	}
	return int64(float64(onDeviceUS)/c.Speedup) + c.CommOverheadUS
}

// mergeTables federated-averages Q-tables trained on different devices:
// every state's action values are combined weighted by per-device visit
// counts, so a device that explored a state thoroughly dominates
// devices that barely saw it. Tables must share the action-space size.
func mergeTables(tables []*core.QTable) (*core.QTable, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("cloud: nothing to merge")
	}
	for i, t := range tables {
		if t == nil {
			return nil, fmt.Errorf("cloud: table %d is nil", i)
		}
	}
	actions := tables[0].Actions
	for i, t := range tables {
		if t.Actions != actions {
			return nil, fmt.Errorf("cloud: table %d has %d actions, want %d", i, t.Actions, actions)
		}
	}
	merged := core.NewQTable(actions)
	type acc struct {
		sum    []float64
		weight int
	}
	accs := make(map[core.StateKey]*acc, len(tables[0].Q))
	for _, t := range tables {
		for s, row := range t.Q {
			w := t.Visits[s]
			if w <= 0 {
				w = 1 // seen but unweighted: count once
			}
			a, ok := accs[s]
			if !ok {
				a = &acc{sum: make([]float64, actions)}
				accs[s] = a
			}
			for i, v := range row {
				a.sum[i] += v * float64(w)
			}
			a.weight += w
		}
		merged.Steps += t.Steps
		if t.TrainedUS > merged.TrainedUS {
			merged.TrainedUS = t.TrainedUS // fleet trains in parallel
		}
	}
	for s, a := range accs {
		row := make([]float64, actions)
		for i := range row {
			row[i] = a.sum[i] / float64(a.weight)
		}
		merged.Q[s] = row
		merged.Visits[s] = a.weight
	}
	return merged, nil
}

// MergeTableSets federated-averages complete learner table states
// role-by-role: every set must come from the same learner (same
// registry name and role layout), and each role merges independently
// across devices via mergeTables — so a two-estimator Double-Q policy
// keeps two distinct estimators through a fleet merge instead of
// collapsing into one.
func MergeTableSets(sets []*learner.TableSet) (*learner.TableSet, error) {
	if len(sets) == 0 {
		return nil, fmt.Errorf("cloud: nothing to merge")
	}
	for i, s := range sets {
		if s == nil || s.Primary() == nil {
			return nil, fmt.Errorf("cloud: set %d is empty", i)
		}
	}
	name := learner.Normalize(sets[0].Learner)
	roles := make([]string, len(sets[0].Roles))
	for i, r := range sets[0].Roles {
		roles[i] = r.Role
	}
	for i, s := range sets {
		if learner.Normalize(s.Learner) != name {
			return nil, fmt.Errorf("cloud: set %d is from learner %q, fleet has %q",
				i, learner.Normalize(s.Learner), name)
		}
		if len(s.Roles) != len(roles) {
			return nil, fmt.Errorf("cloud: set %d has %d roles, want %d", i, len(s.Roles), len(roles))
		}
		for j, r := range s.Roles {
			if r.Role != roles[j] {
				return nil, fmt.Errorf("cloud: set %d role %d is %q, want %q", i, j, r.Role, roles[j])
			}
		}
	}
	merged := &learner.TableSet{Learner: name, Roles: make([]learner.RoleTable, len(roles))}
	tables := make([]*core.QTable, len(sets))
	for j, role := range roles {
		for i, s := range sets {
			tables[i] = s.Roles[j].Table
		}
		m, err := mergeTables(tables)
		if err != nil {
			return nil, fmt.Errorf("cloud: role %q: %w", role, err)
		}
		merged.Roles[j] = learner.RoleTable{Role: role, Table: m}
	}
	return merged, nil
}

// JoinDevices is the federated-join phase of a merge epoch: it merges
// the latest per-device table sets in sorted-device-ID order and
// returns the merged set alongside that order. Sorting here — rather
// than at each call site — makes the floating-point association order
// of the weighted average a property of the device set alone. That is
// the byte-identity contract the hierarchical fleet leans on: edge
// aggregators forward raw per-device tables (never partial averages,
// which would reassociate the float sums), so a root join over the
// union of any number of aggregator regions is bit-identical to a
// flat single-tier merge of the same uploads.
func JoinDevices(uploads map[string]*learner.TableSet) (*learner.TableSet, []string, error) {
	if len(uploads) == 0 {
		return nil, nil, fmt.Errorf("cloud: nothing to join")
	}
	devices := make([]string, 0, len(uploads))
	for d := range uploads {
		devices = append(devices, d)
	}
	sort.Strings(devices)
	sets := make([]*learner.TableSet, len(devices))
	for i, d := range devices {
		sets[i] = uploads[d]
	}
	merged, err := MergeTableSets(sets)
	if err != nil {
		return nil, nil, err
	}
	return merged, devices, nil
}

// NewArtifact wraps a merge round's output as an unversioned policy
// artifact: the canonical content hash, the learner identity, and the
// merge provenance (round, contributing devices, state count). The
// rollout manager assigns Version, Parent and CreatedUS on Submit —
// versions are a per-key lifecycle property, not a merge property.
func NewArtifact(set *learner.TableSet, round int64, devices int) (rollout.Artifact, error) {
	if set == nil || set.Primary() == nil {
		return rollout.Artifact{}, fmt.Errorf("cloud: empty merge output")
	}
	hash, err := core.HashTableSet(set)
	if err != nil {
		return rollout.Artifact{}, fmt.Errorf("cloud: hashing merge output: %w", err)
	}
	return rollout.Artifact{
		ArtifactMeta: core.ArtifactMeta{
			Hash:    hash,
			Learner: learner.Normalize(set.Learner),
			Round:   round,
			Devices: devices,
			States:  set.Primary().States(),
		},
		Set: set,
	}, nil
}

// Fleet is a set of devices (agents) participating in federated
// training of the same applications.
type Fleet struct {
	Devices []*core.Agent
	Trainer TrainerConfig
}

// MergeApp merges the named app's learner table sets across the fleet
// role-by-role and installs the merged, trained set on every device.
// It returns the merged primary table and the user-visible wall time of
// the round (slowest device's training time through the cloud cost
// model). Devices that never saw the app are skipped as sources but
// still receive the merged set.
func (f *Fleet) MergeApp(app string) (*core.QTable, int64, error) {
	var sets []*learner.TableSet
	var slowest int64
	for _, d := range f.Devices {
		set := d.SnapshotFor(app)
		if set == nil || set.Primary() == nil {
			continue
		}
		sets = append(sets, set)
		if set.Primary().TrainedUS > slowest {
			slowest = set.Primary().TrainedUS
		}
	}
	merged, err := MergeTableSets(sets)
	if err != nil {
		return nil, 0, fmt.Errorf("cloud: merging %q: %w", app, err)
	}
	for _, d := range f.Devices {
		d.InstallTableSet(app, merged.Clone(), true)
	}
	return merged.Primary(), f.Trainer.WallTimeUS(slowest), nil
}
