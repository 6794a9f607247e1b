package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"nextdvfs/internal/learner"
)

// ArtifactMeta is the identity card of a versioned, immutable policy
// artifact: the metadata the rollout controller reasons about without
// touching the table payload. Version numbers are per policy key and
// strictly monotonic; Parent names the version the artifact was built
// on top of (0 for the first artifact of a key), which is what a
// rollback returns the fleet to.
type ArtifactMeta struct {
	Version int64 `json:"version"`
	// Hash is the canonical content hash ("sha256:<hex>" over the
	// compact table-set wire form) — the artifact's identity across
	// restarts, snapshots and architectures.
	Hash string `json:"hash"`
	// Learner is the registry name of the rule that trained the tables.
	Learner string `json:"learner"`
	Parent  int64  `json:"parent"`
	// Round is the fleetd merge round that produced the artifact;
	// Devices how many device tables fed the merge; States the primary
	// table's state count.
	Round     int64 `json:"round"`
	Devices   int   `json:"devices"`
	States    int   `json:"states"`
	CreatedUS int64 `json:"created_us"`
}

// HashTableSet returns the canonical content hash of a table set:
// "sha256:" and the hex SHA-256 of the set's compact JSON wire form
// (MarshalTableSetCompact) with app "" and trained true, so the hash is
// a pure function of the tables and the learner name. That form is
// canonical: the members app, actions, steps, trained_us,
// converged_at_us, trained, q and visits in that order, then learner
// (left out for the default learner) and aux (left out for a single
// table); state keys as decimal strings in string order ("10" before
// "9"), for q and visits each; aux roles in name order; each float64 in
// encoding/json's shortest form; no whitespace. So the hash is the
// same across runs, map orders, GOARCH and GOMAXPROCS, and equals the
// SHA-256 of json.Marshal over the table DTO.
func HashTableSet(set *TableSet) (string, error) {
	h, err := withJSONEncoder("", set, true, func(compact []byte) ([]byte, error) {
		sum := sha256.Sum256(compact)
		return hex.AppendEncode([]byte("sha256:"), sum[:]), nil
	})
	return string(h), err
}

// artifactDTO is the artifact wire/snapshot format: the metadata plus
// the table payload in the standard table-set wire form.
type artifactDTO struct {
	ArtifactMeta
	Table json.RawMessage `json:"table"`
}

func validateArtifactMeta(m ArtifactMeta) error {
	if m.Version <= 0 {
		return fmt.Errorf("core: artifact version %d (want > 0)", m.Version)
	}
	if m.Parent < 0 || m.Parent >= m.Version {
		return fmt.Errorf("core: artifact v%d has parent %d (want 0 <= parent < version)", m.Version, m.Parent)
	}
	if m.Hash == "" {
		return fmt.Errorf("core: artifact v%d has no content hash", m.Version)
	}
	if m.Round < 0 || m.Devices < 0 || m.States < 0 || m.CreatedUS < 0 {
		return fmt.Errorf("core: artifact v%d has negative metadata", m.Version)
	}
	return nil
}

// MarshalArtifact serializes a policy artifact for snapshots and admin
// responses.
func MarshalArtifact(meta ArtifactMeta, set *TableSet) ([]byte, error) {
	if err := validateArtifactMeta(meta); err != nil {
		return nil, err
	}
	table, err := MarshalTableSetCompact("", set, true)
	if err != nil {
		return nil, err
	}
	return json.Marshal(artifactDTO{ArtifactMeta: meta, Table: table})
}

// UnmarshalArtifact parses a persisted policy artifact with the same
// hostile-input posture as UnmarshalTableSet: snapshot files may be
// foreign or hand-edited, so the metadata is range-checked, the table
// payload goes through the hardened table-set path (registry-validated
// learner and role layout), the learner name must match the tables,
// and the content hash is recomputed — a tampered payload fails here,
// not after it has been served to a cohort.
func UnmarshalArtifact(data []byte) (ArtifactMeta, *TableSet, error) {
	var dto artifactDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return ArtifactMeta{}, nil, err
	}
	if err := validateArtifactMeta(dto.ArtifactMeta); err != nil {
		return ArtifactMeta{}, nil, err
	}
	_, set, _, err := UnmarshalTableSet(dto.Table)
	if err != nil {
		return ArtifactMeta{}, nil, fmt.Errorf("core: artifact v%d: %w", dto.Version, err)
	}
	if got := learner.Normalize(set.Learner); got != learner.Normalize(dto.Learner) {
		return ArtifactMeta{}, nil, fmt.Errorf("core: artifact v%d says learner %q but tables are %q",
			dto.Version, learner.Normalize(dto.Learner), got)
	}
	if got := set.Primary().States(); got != dto.States {
		return ArtifactMeta{}, nil, fmt.Errorf("core: artifact v%d says %d states but tables hold %d",
			dto.Version, dto.States, got)
	}
	hash, err := HashTableSet(set)
	if err != nil {
		return ArtifactMeta{}, nil, err
	}
	if hash != dto.Hash {
		return ArtifactMeta{}, nil, fmt.Errorf("core: artifact v%d content hash mismatch (tampered or torn snapshot)", dto.Version)
	}
	return dto.ArtifactMeta, set, nil
}
