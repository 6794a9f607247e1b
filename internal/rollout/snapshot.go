package rollout

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
)

// snapshotExt marks rollout state files in the snapshot directory.
const snapshotExt = ".rollout.json"

// stateDTO is one key's persisted lifecycle state: the artifacts plus
// the controller position. Evaluation reports are deliberately not
// persisted — they are per-stage evidence, and a restarted server
// should judge a stage only on reports gathered against its live
// artifact set.
type stateDTO struct {
	Key         string            `json:"key"`
	NextVersion int64             `json:"next_version"`
	StageIdx    int               `json:"stage_idx"`
	Rollbacks   int64             `json:"rollbacks"`
	Stable      int64             `json:"stable"`
	Candidate   int64             `json:"candidate,omitempty"`
	LastAction  string            `json:"last_action,omitempty"`
	Artifacts   []json.RawMessage `json:"artifacts"`
}

// safeKeyFile guards the key-to-filename mapping: keys come from
// validated app/platform names joined by "@", but Restore must hold
// the same line against foreign snapshot directories.
func safeKeyFile(key string) bool {
	if key == "" || len(key) > 260 || strings.Contains(key, "..") {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-', c == '@':
		default:
			return false
		}
	}
	return true
}

// SnapshotKey persists one key's rollout state under
// dir/<key>.rollout.json through core.WriteFileAtomic, the table
// store's writer, so a concurrent reader never sees a torn state file.
func (m *Manager) SnapshotKey(dir, key string) error {
	if !safeKeyFile(key) {
		return fmt.Errorf("rollout: unsafe snapshot key %q", key)
	}
	m.mu.RLock()
	e := m.keys[key]
	if e == nil {
		m.mu.RUnlock()
		return nil
	}
	dto := stateDTO{
		Key:         key,
		NextVersion: e.nextVersion,
		StageIdx:    e.stageIdx,
		Rollbacks:   e.rollbacks,
		LastAction:  e.lastAction,
	}
	if e.stable != nil {
		dto.Stable = e.stable.Version
	}
	if e.candidate != nil {
		dto.Candidate = e.candidate.Version
	}
	var err error
	dto.Artifacts = make([]json.RawMessage, len(e.artifacts))
	for i, a := range e.artifacts {
		dto.Artifacts[i], err = core.MarshalArtifact(a.ArtifactMeta, a.Set)
		if err != nil {
			break
		}
	}
	m.mu.RUnlock()
	if err != nil {
		return fmt.Errorf("rollout: snapshotting %s: %w", key, err)
	}
	data, err := json.Marshal(dto)
	if err != nil {
		return err
	}
	return core.WriteFileAtomic(dir, key+".rollout.*.tmp", filepath.Join(dir, key+snapshotExt), data)
}

// Restore warm-starts the manager from a snapshot directory, returning
// how many keys were restored. Every artifact re-runs the hardened
// unmarshal (range-checked metadata, registry-validated tables,
// recomputed content hash), so a tampered or torn snapshot fails the
// restart instead of silently serving corrupt policy. A missing
// directory is a cold start, not an error.
func (m *Manager) Restore(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	n := 0
	for _, f := range entries {
		if f.IsDir() || !strings.HasSuffix(f.Name(), snapshotExt) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			return n, err
		}
		var dto stateDTO
		if err := json.Unmarshal(data, &dto); err != nil {
			return n, fmt.Errorf("rollout: restoring %s: %w", f.Name(), err)
		}
		if !safeKeyFile(dto.Key) || dto.Key+snapshotExt != f.Name() {
			return n, fmt.Errorf("rollout: restoring %s: embedded key %q does not match the file", f.Name(), dto.Key)
		}
		e := &keyState{
			reports:     make(map[string]EvalReport),
			nextVersion: dto.NextVersion,
			stageIdx:    dto.StageIdx,
			rollbacks:   dto.Rollbacks,
			lastAction:  dto.LastAction,
		}
		for _, raw := range dto.Artifacts {
			meta, set, err := core.UnmarshalArtifact(raw)
			if err != nil {
				return n, fmt.Errorf("rollout: restoring %s: %w", f.Name(), err)
			}
			a := &Artifact{ArtifactMeta: meta, Set: set, derived: new(derivedValue)}
			e.artifacts = append(e.artifacts, a)
			if meta.Version > e.nextVersion {
				e.nextVersion = meta.Version
			}
			if meta.Version == dto.Stable {
				e.stable = a
			}
			if dto.Candidate != 0 && meta.Version == dto.Candidate {
				e.candidate = a
			}
		}
		if e.stable == nil {
			return n, fmt.Errorf("rollout: restoring %s: stable version %d not among artifacts", f.Name(), dto.Stable)
		}
		if dto.Candidate != 0 && e.candidate == nil {
			return n, fmt.Errorf("rollout: restoring %s: candidate version %d not among artifacts", f.Name(), dto.Candidate)
		}
		// A live candidate never sits at the final, full-fleet stage:
		// advancing into it promotes. Restored there, every device would
		// resolve to the unvetted candidate and, with no control cohort
		// left to report, the stage could never be judged.
		if e.stageIdx < 0 || e.stageIdx >= len(stages)-1 {
			return n, fmt.Errorf("rollout: restoring %s: stage index %d out of range", f.Name(), e.stageIdx)
		}
		if err := validateArtifacts(e.artifacts); err != nil {
			return n, fmt.Errorf("rollout: restoring %s: %w", f.Name(), err)
		}
		m.mu.Lock()
		m.keys[dto.Key] = e
		m.mu.Unlock()
		n++
	}
	return n, nil
}

// validateArtifacts checks a restored history's internal consistency:
// ascending unique versions and one learner across the key (merges
// enforce this on the live path; a snapshot must not smuggle a mix
// past it).
func validateArtifacts(arts []*Artifact) error {
	var last int64
	name := ""
	for _, a := range arts {
		if a.Version <= last {
			return fmt.Errorf("artifact versions not strictly ascending at v%d", a.Version)
		}
		last = a.Version
		got := learner.Normalize(a.Set.Learner)
		if name == "" {
			name = got
		} else if got != name {
			return fmt.Errorf("artifact v%d from learner %q, history has %q", a.Version, got, name)
		}
	}
	return nil
}
