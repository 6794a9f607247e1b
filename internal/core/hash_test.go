package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nextdvfs/internal/learner"
)

// nxtbHash is the content hash by its definition: SHA-256 over
// MarshalTableSetBinary's bytes with app "" and trained true.
func nxtbHash(t *testing.T, set *TableSet) string {
	t.Helper()
	data, err := MarshalTableSetBinary("", set, true)
	if err != nil {
		t.Fatalf("MarshalTableSetBinary: %v", err)
	}
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// wideSet is a seeded set of the given size: random keys over the full
// uint64 range mixed with small ones, random rows and visit counts.
func wideSet(states int, seed int64) *TableSet {
	rng := rand.New(rand.NewSource(seed))
	t := NewQTable(9)
	for len(t.Q) < states {
		k := StateKey(rng.Uint64() >> uint(rng.Intn(64)))
		row := make([]float64, 9)
		for a := range row {
			row[a] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
		}
		t.Q[k] = row
		t.Visits[k] = rng.Intn(1 << 20)
	}
	t.Steps, t.TrainedUS, t.ConvergedAtUS = 123456, 789, 42
	return learner.SingleTableSet(t)
}

// pinnedHash is HashTableSet(wideSet(2600, 7)). A change to it changes
// every artifact hash and policy ETag a server hands out.
const pinnedHash = "sha256:e3410442ed9090ddd6aaf13149fad131f03c1b09c2044c244accea441f63ca64"

func TestHashTableSetPinned(t *testing.T) {
	set := wideSet(2600, 7)
	h, err := HashTableSet(set)
	if err != nil || h != pinnedHash {
		t.Fatalf("HashTableSet = %q, %v; want %q", h, err, pinnedHash)
	}
	if want := nxtbHash(t, set); h != want {
		t.Fatalf("HashTableSet = %q; SHA-256 of the NXTB form is %q", h, want)
	}
}

func TestHashTableSetRefusesUnencodableSets(t *testing.T) {
	a, b := binTestSet().Primary().Clone(), binTestSet().Primary().Clone()
	cases := map[string]*TableSet{
		"nil set":        nil,
		"no roles":       {Learner: "watkins"},
		"duplicate role": {Learner: "doubleq", Roles: []RoleTable{{Role: "a", Table: a}, {Role: "b", Table: b}, {Role: "b", Table: b}}},
		"empty role":     {Learner: "doubleq", Roles: []RoleTable{{Role: "a", Table: a}, {Role: "", Table: b}}},
		"action count":   {Learner: "doubleq", Roles: []RoleTable{{Role: "a", Table: a}, {Role: "b", Table: NewQTable(2)}}},
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		q := NewQTable(2)
		q.Q[1] = []float64{0, 1}
		q.Q[2] = []float64{1, bad}
		cases[fmt.Sprint(bad)] = learner.SingleTableSet(q)
	}
	for name, row := range map[string][]float64{"nil row": nil, "short row": {1}, "long row": {1, 2, 3}} {
		q := NewQTable(2)
		q.Q[1] = []float64{0, 1}
		q.Q[2] = row
		cases[name] = learner.SingleTableSet(q)
		if _, err := MarshalTableSetBinary("", cases[name], true); err == nil {
			t.Errorf("%s: MarshalTableSetBinary accepted it", name)
		}
	}
	for name, set := range cases {
		if h, err := HashTableSet(set); err == nil {
			t.Errorf("%s: HashTableSet = %q, want an error", name, h)
		}
	}
	// What the hash refuses for its values alone, the JSON encoder
	// refuses too; the binary codec carries it.
	q := NewQTable(2)
	q.Q[1] = []float64{math.NaN(), 0}
	if _, err := MarshalTableSetCompact("", learner.SingleTableSet(q), true); err == nil {
		t.Error("MarshalTableSetCompact accepted NaN")
	}
	if _, err := MarshalTableSetBinary("", learner.SingleTableSet(q), true); err != nil {
		t.Errorf("MarshalTableSetBinary refused NaN: %v", err)
	}
}

// FuzzHashTableSet builds a table set from the input — keys, float bit
// patterns and visit counts straight from its bytes, rows one value
// short when an op byte says so, a second role when the first byte
// says so — and checks the hash against its definition: SHA-256 of the
// NXTB form for finite sets with full rows, an error for any other,
// and the same hash after a JSON or an NXTB round trip.
func FuzzHashTableSet(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 5})
	f.Add(bytes.Repeat([]byte{0xff, 0x7f, 0, 1, 2, 3, 4, 5, 6, 0xef}, 40))
	f.Add(bytes.Repeat([]byte{0x80, 0, 0, 0, 0, 0, 0xf8, 0x7f}, 20)) // NaN bits
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) []byte {
			if len(data) < n {
				data = append(data, make([]byte, n-len(data))...)
			}
			p := data[:n]
			data = data[n:]
			return p
		}
		head := next(2)
		actions := int(head[1]%4) + 1
		table := func() *QTable {
			q := NewQTable(actions)
			for n := next(1)[0] % 32; n > 0; n-- {
				k := StateKey(binary.LittleEndian.Uint64(next(8)))
				switch op := next(1)[0]; op % 4 {
				case 0:
					q.Visits[k] = int(int8(op))
				default:
					row := make([]float64, actions)
					for a := range row {
						row[a] = math.Float64frombits(binary.LittleEndian.Uint64(next(8)))
					}
					if op%4 == 3 {
						row = row[:actions-1]
					}
					q.Q[k] = row
					if op%4 == 2 {
						q.Visits[k] = int(op)
					}
				}
			}
			return q
		}
		set := learner.SingleTableSet(table())
		if head[0]&1 == 1 {
			set = &TableSet{Learner: "doubleq", Roles: []RoleTable{{Role: "a", Table: set.Primary()}, {Role: "b", Table: table()}}}
		}
		hashable := true
		for _, r := range set.Roles {
			for _, row := range r.Table.Q {
				hashable = hashable && len(row) == actions
				for _, v := range row {
					hashable = hashable && !math.IsNaN(v) && !math.IsInf(v, 0)
				}
			}
		}

		h, err := HashTableSet(set)
		if !hashable {
			if err == nil {
				t.Fatalf("HashTableSet = %q for a set with a non-finite value or a short row", h)
			}
			return
		}
		if err != nil {
			t.Fatalf("HashTableSet: %v", err)
		}
		if want := nxtbHash(t, set); h != want {
			t.Fatalf("HashTableSet = %q; SHA-256 of the NXTB form is %q", h, want)
		}

		trained := head[0]&2 == 0
		js, err := MarshalTableSetCompact("app", set, trained)
		if err != nil {
			t.Fatalf("MarshalTableSetCompact: %v", err)
		}
		_, fromJSON, _, err := UnmarshalTableSet(js)
		if err != nil {
			t.Fatalf("UnmarshalTableSet: %v", err)
		}
		bin, err := MarshalTableSetBinary("app", set, trained)
		if err != nil {
			t.Fatalf("MarshalTableSetBinary: %v", err)
		}
		_, fromBin, _, err := UnmarshalTableSetBinary(bin)
		if err != nil {
			t.Fatalf("UnmarshalTableSetBinary: %v", err)
		}
		for name, got := range map[string]*TableSet{"JSON": fromJSON, "NXTB": fromBin} {
			if h2, err := HashTableSet(got); err != nil || h2 != h {
				t.Fatalf("after a %s round trip HashTableSet = %q, %v; want %q", name, h2, err, h)
			}
		}
	})
}
