package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"nextdvfs/internal/learner"
)

// The encoding/json oracle: the table-set DTO as the encoder's
// predecessor built it, marshaled by encoding/json. The hand-written
// encoder must produce exactly its bytes.

func setToDTO(app string, set *TableSet, trained bool) (*tableDTO, error) {
	if set == nil || set.Primary() == nil {
		return nil, fmt.Errorf("core: nil table set for %q", app)
	}
	t := set.Primary()
	dto := tableDTO{
		App:           app,
		Actions:       t.Actions,
		Steps:         t.Steps,
		TrainedUS:     t.TrainedUS,
		ConvergedAtUS: t.ConvergedAtUS,
		Trained:       trained,
		Q:             tableToWire(t),
		Visits:        visitsToWire(t),
	}
	if name := learner.Normalize(set.Learner); name != learner.DefaultLearner {
		dto.Learner = name
	}
	for _, r := range set.Roles[1:] {
		if r.Table.Actions != t.Actions {
			return nil, fmt.Errorf("core: role %q of %q has %d actions, primary has %d",
				r.Role, app, r.Table.Actions, t.Actions)
		}
		if dto.Aux == nil {
			dto.Aux = make(map[string]roleDTO, len(set.Roles)-1)
		}
		if _, dup := dto.Aux[r.Role]; dup || r.Role == "" {
			return nil, fmt.Errorf("core: bad role %q in table set for %q", r.Role, app)
		}
		dto.Aux[r.Role] = roleDTO{Q: tableToWire(r.Table), Visits: visitsToWire(r.Table)}
	}
	return &dto, nil
}

func tableToWire(t *QTable) map[string][]float64 {
	m := make(map[string][]float64, len(t.Q))
	for k, v := range t.Q {
		m[strconv.FormatUint(uint64(k), 10)] = v
	}
	return m
}

func visitsToWire(t *QTable) map[string]int {
	m := make(map[string]int, len(t.Visits))
	for k, v := range t.Visits {
		m[strconv.FormatUint(uint64(k), 10)] = v
	}
	return m
}

// oracleCompact is json.Marshal over the DTO.
func oracleCompact(app string, set *TableSet, trained bool) ([]byte, error) {
	dto, err := setToDTO(app, set, trained)
	if err != nil {
		return nil, err
	}
	return json.Marshal(dto)
}

// checkAgainstOracle compares every table-set encoder with the oracle
// on one set: compact, indented, the content hash and the artifact
// form. Both sides must fail, or produce the same bytes.
func checkAgainstOracle(t *testing.T, name, app string, set *TableSet, trained bool) {
	t.Helper()
	want, wantErr := oracleCompact(app, set, trained)
	got, err := MarshalTableSetCompact(app, set, trained)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: compact error %v, oracle error %v", name, err, wantErr)
	}
	if wantErr != nil {
		if err.Error() != wantErr.Error() {
			t.Errorf("%s: error %q, oracle %q", name, err, wantErr)
		}
		if _, err := HashTableSet(set); err == nil {
			t.Errorf("%s: HashTableSet accepted a set the oracle refuses", name)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: compact bytes differ from encoding/json\n got %.300s\nwant %.300s", name, got, want)
	}
	dto, _ := setToDTO(app, set, trained)
	wantIndent, _ := json.MarshalIndent(dto, "", " ")
	if gotIndent, err := MarshalTableSet(app, set, trained); err != nil || !bytes.Equal(gotIndent, wantIndent) {
		t.Fatalf("%s: indented bytes differ from json.MarshalIndent (err %v)", name, err)
	}
	hashWant, _ := oracleCompact("", set, true)
	sum := sha256.Sum256(hashWant)
	if h, err := HashTableSet(set); err != nil || h != "sha256:"+hex.EncodeToString(sum[:]) {
		t.Fatalf("%s: HashTableSet = %q, %v; want the oracle's sha256", name, h, err)
	}
	meta := ArtifactMeta{Version: 2, Hash: "sha256:x", Learner: "<&>", Parent: 1, Round: 3, Devices: 4, States: 5, CreatedUS: 6}
	artWant, _ := json.Marshal(artifactDTO{ArtifactMeta: meta, Table: hashWant})
	if art, err := MarshalArtifact(meta, set); err != nil || !bytes.Equal(art, artWant) {
		t.Fatalf("%s: MarshalArtifact differs from json.Marshal of the DTO (err %v)", name, err)
	}
}

// edgeFloats are the values where encoding/json's float form switches
// or is easiest to get wrong.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, -1e-6, 1e-7, -1e-7, 9.999999e-7,
	1e20, 1e21, -1e21, 123456789e13, 1e-300, 5e-324, -5e-324, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1.5e300, 1e-10, 3.14159,
}

// wideJSONSet is a seeded set of the given size: random keys over the
// full uint64 range mixed with small ones, random rows and visit
// counts, as the oracle tests and the pinned hash use.
func wideJSONSet(states int, seed int64) *TableSet {
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

func TestCompactMatchesEncodingJSON(t *testing.T) {
	keys := []StateKey{0, 9, 10, 11, 99, 100, 1 << 40, math.MaxUint64, math.MaxUint64 - 1, 1e19, 1e19 - 1}

	edges := NewQTable(len(edgeFloats))
	for i, k := range keys {
		row := append([]float64(nil), edgeFloats...)
		row[0] = float64(i)
		edges.Q[k] = row
		edges.Visits[k] = i * 1000
	}
	edges.Visits[StateKey(12345)] = 7     // visits without a row
	edges.Q[StateKey(54321)] = edgeFloats // a row without visits
	edges.Steps, edges.TrainedUS, edges.ConvergedAtUS = 5, math.MaxInt64, -3
	checkAgainstOracle(t, "edge values", "app<&>\u2028\"\\x\xff", learner.SingleTableSet(edges), true)
	checkAgainstOracle(t, "untrained", "", learner.SingleTableSet(edges), false)

	// Keys of at most 16 digits sort packed; keys that are each other
	// plus trailing zeros tie there but for their length.
	prefixes := NewQTable(2)
	for _, k := range []StateKey{0, 1, 2, 9, 10, 11, 19, 20, 90, 99, 100, 101, 1e15, 1e16 - 1, 123, 1230, 12300, 1229} {
		prefixes.Q[k] = []float64{float64(k), -0.5}
		prefixes.Visits[k+1] = int(k % 7)
	}
	checkAgainstOracle(t, "prefix keys", "p", learner.SingleTableSet(prefixes), true)

	empty := NewQTable(3)
	checkAgainstOracle(t, "empty table", "spotify", learner.SingleTableSet(empty), false)
	checkAgainstOracle(t, "nil maps", "spotify", learner.SingleTableSet(&QTable{Actions: 2}), false)

	nilRow := NewQTable(2)
	nilRow.Q[3] = nil
	nilRow.Q[4] = []float64{}
	checkAgainstOracle(t, "nil and empty rows", "x", learner.SingleTableSet(nilRow), true)

	a, b := binTestSet().Primary().Clone(), binTestSet().Primary().Clone()
	b.Q[StateKey(10)] = []float64{1e-7, 1e21, 0}
	doubleq := &TableSet{Learner: "doubleq", Roles: []RoleTable{{Role: "a", Table: a}, {Role: "b", Table: b}}}
	checkAgainstOracle(t, "doubleq", "game", doubleq, true)
	// The encoder does not check roles against the registry; unusual
	// names must still sort and escape as encoding/json does.
	odd := &TableSet{Learner: "x<y>", Roles: []RoleTable{{Role: "q", Table: a}, {Role: "z&", Table: b}, {Role: "<a>", Table: a}}}
	checkAgainstOracle(t, "escaped role names", "a", odd, true)

	for name, set := range map[string]*TableSet{
		"nil set":        nil,
		"no roles":       {Learner: "watkins"},
		"duplicate role": {Learner: "doubleq", Roles: []RoleTable{{Role: "a", Table: a}, {Role: "b", Table: b}, {Role: "b", Table: b}}},
		"empty role":     {Learner: "doubleq", Roles: []RoleTable{{Role: "a", Table: a}, {Role: "", Table: b}}},
		"action count":   {Learner: "doubleq", Roles: []RoleTable{{Role: "a", Table: a}, {Role: "b", Table: NewQTable(2)}}},
	} {
		checkAgainstOracle(t, name, "app", set, true)
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		q := NewQTable(2)
		q.Q[1] = []float64{0, 1}
		q.Q[2] = []float64{1, bad}
		checkAgainstOracle(t, fmt.Sprint(bad), "app", learner.SingleTableSet(q), true)
		if _, err := MarshalTableSetCompact("app", learner.SingleTableSet(q), true); err == nil {
			t.Fatalf("%v marshaled", bad)
		}
	}

	// A table large enough to be formatted on several goroutines, at
	// several worker counts, with a NaN in its last rows too.
	big := wideJSONSet(2600, 1)
	bigNaN := big.Clone()
	for k := range bigNaN.Primary().Q {
		bigNaN.Primary().Q[k][4] = math.NaN()
		break
	}
	short := NewQTable(9)
	rng := rand.New(rand.NewSource(3))
	for len(short.Q) < 2600 {
		k := StateKey(rng.Uint64() % pow10[rng.Intn(17)])
		short.Q[k] = make([]float64, 9)
		for a := range short.Q[k] {
			short.Q[k][a] = rng.NormFloat64()
		}
		short.Visits[k] = rng.Intn(100)
	}
	big2 := &TableSet{Learner: "doubleq", Roles: []RoleTable{{Role: "a", Table: big.Primary()}, {Role: "b", Table: wideJSONSet(2600, 2).Primary()}}}
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		checkAgainstOracle(t, fmt.Sprintf("2600 states, GOMAXPROCS %d", procs), "big", big, true)
		checkAgainstOracle(t, fmt.Sprintf("doubleq 2x2600 states, GOMAXPROCS %d", procs), "big", big2, true)
		checkAgainstOracle(t, fmt.Sprintf("2600 states with NaN, GOMAXPROCS %d", procs), "big", bigNaN, true)
		checkAgainstOracle(t, fmt.Sprintf("2600 states of at most 16 digits, GOMAXPROCS %d", procs), "big", learner.SingleTableSet(short), true)
		runtime.GOMAXPROCS(prev)
	}
}

// parentHash is HashTableSet(wideJSONSet(2600, 7)) as encoding/json's
// encoder computed it before the hand-written one replaced it.
const parentHash = "sha256:500dd1970b4dd487fc1adad7da44a1fed639b64b4140c46849c173557282390f"

func TestHashTableSetPinned(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		h, err := HashTableSet(wideJSONSet(2600, 7))
		runtime.GOMAXPROCS(prev)
		if err != nil || h != parentHash {
			t.Fatalf("GOMAXPROCS %d: HashTableSet = %q, %v; want %q", procs, h, err, parentHash)
		}
	}
}

// FuzzMarshalTableSetCompact builds a table set from the input — keys,
// float bit patterns and visit counts straight from its bytes, a
// second role when the first byte says so — and checks every encoder
// against the encoding/json oracle.
func FuzzMarshalTableSetCompact(f *testing.F) {
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
				switch op := next(1)[0]; op % 3 {
				case 0:
					q.Visits[k] = int(int8(op))
				default:
					row := make([]float64, actions)
					for a := range row {
						row[a] = math.Float64frombits(binary.LittleEndian.Uint64(next(8)))
					}
					q.Q[k] = row
					if op%3 == 2 {
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
		checkAgainstOracle(t, "fuzz", "app", set, head[0]&2 == 0)
	})
}
