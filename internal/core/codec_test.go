package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"nextdvfs/internal/learner"
)

// binTestSet builds a deterministic two-estimator doubleq set with
// divergent Q/Visits key sets, negative values, and metadata — the
// shapes the codec must carry exactly.
func binTestSet() *learner.TableSet {
	a := NewQTable(3)
	a.Q[StateKey(5)] = []float64{1.5, -2.25, 0}
	a.Q[StateKey(900)] = []float64{math.MaxFloat64, -0.0, 1e-300}
	a.Visits[StateKey(5)] = 7
	a.Visits[StateKey(44)] = 1 // visit without a row: legal on the wire
	a.Steps = 1234
	a.TrainedUS = 99_000_001
	a.ConvergedAtUS = 42
	b := NewQTable(3)
	b.Q[StateKey(0)] = []float64{0.125, 0.25, 0.5}
	b.Visits[StateKey(0)] = 3
	return &learner.TableSet{Learner: "doubleq", Roles: []learner.RoleTable{
		{Role: "a", Table: a},
		{Role: "b", Table: b},
	}}
}

// TestBinaryCodecRoundTrip pins the codec contract: every learner's
// set survives encode → decode with app, trained flag, metadata,
// values and visit counts intact, and the encoding is canonical
// (equal sets encode to equal bytes).
func TestBinaryCodecRoundTrip(t *testing.T) {
	sets := map[string]*learner.TableSet{
		"doubleq": binTestSet(),
	}
	q := NewQTable(9)
	q.Update(StateKey(11), 3, 0.5, StateKey(12), 0.2, 0.9)
	q.Update(StateKey(12), 1, -0.25, StateKey(11), 0.2, 0.9)
	sets["watkins"] = learner.SingleTableSet(q)

	for name, set := range sets {
		data, err := MarshalTableSetBinary("spotify", set, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !IsBinaryTableSet(data) {
			t.Fatalf("%s: encoding lost the magic", name)
		}
		again, err := MarshalTableSetBinary("spotify", set, true)
		if err != nil || !bytes.Equal(data, again) {
			t.Fatalf("%s: encoding is not canonical (err=%v)", name, err)
		}
		app, got, trained, err := UnmarshalTableSetBinary(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if app != "spotify" || !trained {
			t.Fatalf("%s: app=%q trained=%v", name, app, trained)
		}
		setsEqual(t, set, got)
		p, gp := set.Primary(), got.Primary()
		if gp.Steps != p.Steps || gp.TrainedUS != p.TrainedUS || gp.ConvergedAtUS != p.ConvergedAtUS {
			t.Fatalf("%s: metadata lost: %+v vs %+v", name, gp, p)
		}
		// Decode → re-encode is a fixed point: canonical in, canonical out.
		re, err := MarshalTableSetBinary(app, got, trained)
		if err != nil || !bytes.Equal(data, re) {
			t.Fatalf("%s: decode/re-encode not a fixed point (err=%v)", name, err)
		}
	}
}

// TestBinaryCodecMatchesJSON pins transfer-encoding equivalence: the
// binary and JSON forms of one set decode to identical TableSets, so
// the canonical content hash (artifact identity, ETags) is the same
// through either encoding.
func TestBinaryCodecMatchesJSON(t *testing.T) {
	set := binTestSet()
	jsonData, err := MarshalTableSetCompact("game", set, false)
	if err != nil {
		t.Fatal(err)
	}
	binData, err := MarshalTableSetBinary("game", set, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(binData) >= len(jsonData) {
		t.Errorf("binary (%d B) not smaller than JSON (%d B)", len(binData), len(jsonData))
	}
	appJ, setJ, trainedJ, err := UnmarshalTableSet(jsonData)
	if err != nil {
		t.Fatal(err)
	}
	appB, setB, trainedB, err := UnmarshalTableSetBinary(binData)
	if err != nil {
		t.Fatal(err)
	}
	if appJ != appB || trainedJ != trainedB {
		t.Fatalf("app/trained diverge: %q/%v vs %q/%v", appJ, trainedJ, appB, trainedB)
	}
	setsEqual(t, setJ, setB)
	hj, err := HashTableSet(setJ)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := HashTableSet(setB)
	if err != nil {
		t.Fatal(err)
	}
	if hj != hb {
		t.Fatalf("content hash depends on transfer encoding: %s vs %s", hj, hb)
	}

	// The Any dispatcher routes each encoding to its decoder.
	if _, s, _, err := UnmarshalTableSetAny(binData); err != nil || len(s.Roles) != 2 {
		t.Fatalf("Any(binary): %v", err)
	}
	if _, s, _, err := UnmarshalTableSetAny(jsonData); err != nil || len(s.Roles) != 2 {
		t.Fatalf("Any(json): %v", err)
	}
}

// TestBinaryCodecRejectsHostileInputs: the decoder is an untrusted
// ingress — malformed framing must error, never panic or allocate
// past the payload size.
func TestBinaryCodecRejectsHostileInputs(t *testing.T) {
	valid, err := MarshalTableSetBinary("spotify", binTestSet(), true)
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation must fail cleanly (a prefix can never be a
	// complete set — trailing data is rejected, so no prefix parses).
	for i := 0; i < len(valid); i++ {
		if _, _, _, err := UnmarshalTableSetBinary(valid[:i]); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", i, len(valid))
		}
	}
	// Trailing garbage after a valid payload.
	if _, _, _, err := UnmarshalTableSetBinary(append(append([]byte{}, valid...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte{}, valid...)
		mutate(b)
		return b
	}
	cases := map[string][]byte{
		"bad magic":       corrupt(func(b []byte) { b[0] = 'J' }),
		"future version":  corrupt(func(b []byte) { b[4] = 9 }),
		"unknown flags":   corrupt(func(b []byte) { b[5] |= 0x80 }),
		"empty input":     {},
		"magic only":      []byte("NXTB"),
		"json body":       []byte(`{"app":"x","actions":9,"q":{},"visits":{}}`),
		"huge role count": {'N', 'X', 'T', 'B', 1, 0, 0, 0, 2, 0xff, 0xff, 0xff, 0xff, 0x0f},
	}
	for name, data := range cases {
		if _, _, _, err := UnmarshalTableSetBinary(data); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}

	// Non-ascending state keys (a zero delta) are non-canonical: build
	// a tiny watkins payload by hand and pin the rejection.
	q := NewQTable(1)
	q.Q[StateKey(3)] = []float64{1}
	q.Q[StateKey(4)] = []float64{2}
	data, err := MarshalTableSetBinary("x", learner.SingleTableSet(q), false)
	if err != nil {
		t.Fatal(err)
	}
	// The second key's delta uvarint (value 1) sits right before its row:
	// locate it and zero it. Layout: ... count=2, key=3, 8B row, delta=1.
	idx := bytes.Index(data, []byte{2, 3}) // q count, first key
	if idx < 0 {
		t.Fatal("test payload layout changed; update the offset logic")
	}
	data[idx+2+8] = 0 // delta 1 → 0
	if _, _, _, err := UnmarshalTableSetBinary(data); err == nil {
		t.Fatal("zero key delta (duplicate state key) accepted")
	}

	// An undersized payload claiming a huge Q entry count must be
	// rejected before the count sizes an allocation.
	hdr := []byte{'N', 'X', 'T', 'B', 1, 0}
	hdr = append(hdr, 1, 'x')                       // app "x"
	hdr = append(hdr, 0)                            // learner "" → watkins
	hdr = append(hdr, 9)                            // actions
	hdr = append(hdr, 1)                            // one role
	hdr = append(hdr, 1, 'q')                       // role "q"
	hdr = append(hdr, 0, 0, 0)                      // steps, trained_us, converged
	hdr = append(hdr, 0xff, 0xff, 0xff, 0xff, 0x0f) // q count ~= 4 billion
	if _, _, _, err := UnmarshalTableSetBinary(hdr); err == nil {
		t.Fatal("implausible q entry count accepted")
	}

	// A role count the bytes could hold but no learner has must be
	// rejected before it sizes the role tables.
	many := binary.AppendUvarint([]byte{'N', 'X', 'T', 'B', 1, 0, 1, 'x', 0, 9}, 1<<18)
	many = append(many, make([]byte, 1<<20)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err = UnmarshalSortedSetBinary(many)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("role count past any learner's accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<16 {
		t.Fatalf("refusing %d roles in a %d-byte body allocated %d bytes", 1<<18, len(many), got)
	}
}

// TestBinaryCodecValidatesLearnerLayout: the binary path applies the
// same registry validation as JSON — a doubleq set missing role b, or
// an unknown learner name, fails at decode.
func TestBinaryCodecValidatesLearnerLayout(t *testing.T) {
	q := NewQTable(9)
	bad := &learner.TableSet{Learner: "doubleq", Roles: []learner.RoleTable{{Role: "a", Table: q}}}
	if _, err := MarshalTableSetBinary("x", bad, false); err != nil {
		// Encoder may reject structurally; decode must reject regardless.
		t.Skipf("encoder rejected truncated doubleq set: %v", err)
	}
	data, err := MarshalTableSetBinary("x", bad, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := UnmarshalTableSetBinary(data); err == nil {
		t.Fatal("doubleq set without role b accepted")
	}
}
