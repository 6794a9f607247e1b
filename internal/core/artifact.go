package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

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
	// table set's canonical NXTB encoding; see HashTableSet): the
	// artifact's identity across restarts, snapshots and
	// architectures, what rollout dedup compares and what the
	// /v1/policy ETag carries.
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
// "sha256:" and the hex SHA-256 of the set's NXTB encoding
// (MarshalTableSetBinary) with app "" and trained true, so the hash is
// a pure function of the tables and the learner name. That encoding is
// canonical (see the codec's doc), so the hash is the same across runs,
// map orders and GOARCH. It refuses a set the encoder refuses, a row
// whose length is not the action count included, and a set holding NaN
// or ±Inf, which the JSON encoders refuse too: every hashable set can
// be written as a JSON artifact.
func HashTableSet(set *TableSet) (string, error) {
	buf := hashBufs.Get().(*[]byte)
	defer hashBufs.Put(buf)
	b, err := appendTableSetBinary((*buf)[:0], "", set, true, true)
	if err != nil {
		return "", err
	}
	*buf = b
	return sha256Hash(b), nil
}

// hashBufs pools HashTableSet's encode buffers: a merged policy encodes
// to a few hundred KB, once a merge round.
var hashBufs = sync.Pool{New: func() any { return new([]byte) }}

// jsonRuleHash is the content hash as it was computed before the NXTB
// rule: SHA-256 over the set's compact JSON with app "" and trained
// true. Artifacts persisted then carry it.
func jsonRuleHash(set *TableSet) (string, error) {
	data, err := MarshalTableSetCompact("", set, true)
	if err != nil {
		return "", err
	}
	return sha256Hash(data), nil
}

func sha256Hash(data []byte) string {
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// artifactDTO is the artifact wire/snapshot format: the metadata plus
// the table payload in the standard table-set wire form.
type artifactDTO struct {
	ArtifactMeta
	Table tableDTO `json:"table"`
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
	table, err := setToDTO("", set, true)
	if err != nil {
		return nil, err
	}
	return json.Marshal(artifactDTO{ArtifactMeta: meta, Table: *table})
}

// UnmarshalArtifact parses a persisted policy artifact with the same
// hostile-input posture as UnmarshalTableSet: snapshot files may be
// foreign or hand-edited, so the metadata is range-checked, the table
// payload goes through the hardened table-set path (registry-validated
// learner and role layout), the learner name must match the tables,
// and the content hash is recomputed — a tampered payload fails here,
// not after it has been served to a cohort. A hash under the JSON rule
// that preceded HashTableSet's is accepted too, and the artifact comes
// back stamped with its HashTableSet hash, so an older snapshot
// restores and dedup and ETags use one rule from then on.
func UnmarshalArtifact(data []byte) (ArtifactMeta, *TableSet, error) {
	var dto artifactDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return ArtifactMeta{}, nil, err
	}
	if err := validateArtifactMeta(dto.ArtifactMeta); err != nil {
		return ArtifactMeta{}, nil, err
	}
	set, err := dtoToSet(&dto.Table)
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
		if old, err := jsonRuleHash(set); err != nil || old != dto.Hash {
			return ArtifactMeta{}, nil, fmt.Errorf("core: artifact v%d content hash mismatch (tampered or torn snapshot)", dto.Version)
		}
		dto.Hash = hash
	}
	return dto.ArtifactMeta, set, nil
}
