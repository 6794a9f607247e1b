package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"nextdvfs/internal/learner"
)

func artifactTestSet() *TableSet {
	t := NewQTable(3)
	t.Q[StateKey(7)] = []float64{1, 2, 3}
	t.Q[StateKey(9)] = []float64{-1, 0, 1}
	t.Visits[StateKey(7)] = 4
	t.Visits[StateKey(9)] = 2
	t.Steps = 6
	return learner.SingleTableSet(t)
}

func TestHashTableSetDeterministic(t *testing.T) {
	set := artifactTestSet()
	h1, err := HashTableSet(set)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := HashTableSet(set.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 || !strings.HasPrefix(h1, "sha256:") {
		t.Fatalf("hash not deterministic or malformed: %q vs %q", h1, h2)
	}
	other := artifactTestSet()
	other.Primary().Q[StateKey(7)][0] = 99
	h3, _ := HashTableSet(other)
	if h3 == h1 {
		t.Fatal("different tables share a content hash")
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	set := artifactTestSet()
	hash, err := HashTableSet(set)
	if err != nil {
		t.Fatal(err)
	}
	meta := ArtifactMeta{
		Version: 3, Hash: hash, Learner: learner.DefaultLearner,
		Parent: 2, Round: 9, Devices: 4, States: 2, CreatedUS: 1234,
	}
	data, err := MarshalArtifact(meta, set)
	if err != nil {
		t.Fatalf("MarshalArtifact: %v", err)
	}
	got, gotSet, err := UnmarshalArtifact(data)
	if err != nil {
		t.Fatalf("UnmarshalArtifact: %v", err)
	}
	if got != meta {
		t.Fatalf("meta round trip: %+v != %+v", got, meta)
	}
	a, _ := MarshalTableSetCompact("", set, true)
	b, _ := MarshalTableSetCompact("", gotSet, true)
	if !bytes.Equal(a, b) {
		t.Fatal("table payload drifted through the artifact round trip")
	}
}

func TestUnmarshalArtifactHostileInputs(t *testing.T) {
	set := artifactTestSet()
	hash, _ := HashTableSet(set)
	good := ArtifactMeta{Version: 2, Hash: hash, Learner: learner.DefaultLearner, Parent: 1, States: 2}

	for name, mutate := range map[string]func(*ArtifactMeta){
		"zero-version":     func(m *ArtifactMeta) { m.Version = 0 },
		"negative-version": func(m *ArtifactMeta) { m.Version = -1 },
		"parent>=version":  func(m *ArtifactMeta) { m.Parent = 2 },
		"negative-parent":  func(m *ArtifactMeta) { m.Parent = -1 },
		"no-hash":          func(m *ArtifactMeta) { m.Hash = "" },
		"negative-devices": func(m *ArtifactMeta) { m.Devices = -1 },
	} {
		m := good
		mutate(&m)
		if _, err := MarshalArtifact(m, set); err == nil {
			t.Errorf("%s: MarshalArtifact accepted %+v", name, m)
		}
	}

	// A well-formed artifact whose payload was altered after hashing.
	data, err := MarshalArtifact(good, set)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(data, []byte(`"7":[1,2,3]`), []byte(`"7":[8,2,3]`), 1)
	if bytes.Equal(tampered, data) {
		t.Fatalf("tamper target not found in %s", data)
	}
	if _, _, err := UnmarshalArtifact(tampered); err == nil || !strings.Contains(err.Error(), "hash") {
		t.Fatalf("tampered artifact = %v, want content-hash error", err)
	}

	// An artifact hashed under the JSON rule loads, stamped with
	// HashTableSet's hash; altered after hashing, it fails too.
	oldRule := good
	if oldRule.Hash, err = jsonRuleHash(set); err != nil || oldRule.Hash == hash {
		t.Fatalf("jsonRuleHash = %q, %v; want a hash other than %q", oldRule.Hash, err, hash)
	}
	data, err = MarshalArtifact(oldRule, set)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := UnmarshalArtifact(data); err != nil || got != good {
		t.Fatalf("JSON-rule artifact = %+v, %v; want %+v", got, err, good)
	}
	tampered = bytes.Replace(data, []byte(`"7":[1,2,3]`), []byte(`"7":[8,2,3]`), 1)
	if _, _, err := UnmarshalArtifact(tampered); err == nil || !strings.Contains(err.Error(), "hash") {
		t.Fatalf("tampered JSON-rule artifact = %v, want content-hash error", err)
	}

	// Lying metadata: claimed state count differs from the payload.
	lying := good
	lying.States = 99
	data, err = MarshalArtifact(lying, set)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := UnmarshalArtifact(data); err == nil || !strings.Contains(err.Error(), "states") {
		t.Fatalf("states-mismatch artifact = %v, want states error", err)
	}

	// Lying learner name.
	wrongLearner := good
	wrongLearner.Learner = "doubleq"
	data, err = MarshalArtifact(wrongLearner, set)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := UnmarshalArtifact(data); err == nil || !strings.Contains(err.Error(), "learner") {
		t.Fatalf("learner-mismatch artifact = %v, want learner error", err)
	}
}

// TestMarshalArtifactBytes pins MarshalArtifact's bytes to the form it
// had when it embedded the table as compact JSON in a json.RawMessage.
func TestMarshalArtifactBytes(t *testing.T) {
	doubleq := &TableSet{Learner: "doubleq", Roles: []RoleTable{
		{Role: "a", Table: wideSet(300, 1).Primary()},
		{Role: "b", Table: wideSet(300, 2).Primary()},
	}}
	meta := ArtifactMeta{Version: 2, Hash: "sha256:<&>", Learner: "<&>", Parent: 1, Round: 3, Devices: 4, States: 5, CreatedUS: 6}
	for name, set := range map[string]*TableSet{
		"small":   artifactTestSet(),
		"wide":    wideSet(2600, 7),
		"doubleq": doubleq,
		"empty":   learner.SingleTableSet(NewQTable(3)),
	} {
		table, err := MarshalTableSetCompact("", set, true)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(struct {
			ArtifactMeta
			Table json.RawMessage `json:"table"`
		}{meta, table})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := MarshalArtifact(meta, set); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: MarshalArtifact = %.200s, %v\nwant %.200s", name, got, err, want)
		}
	}
}
