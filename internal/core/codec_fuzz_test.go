package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"nextdvfs/internal/learner"
)

// fuzzSeedPayloads returns valid wire payloads in both encodings plus
// hostile variants — the seeded corpus both fuzz targets start from.
func fuzzSeedPayloads(tb testing.TB) (binSeeds, jsonSeeds [][]byte) {
	tb.Helper()
	sets := []*learner.TableSet{binTestSet()}
	q := NewQTable(9)
	q.Update(StateKey(11), 3, 0.5, StateKey(12), 0.2, 0.9)
	sets = append(sets, learner.SingleTableSet(q))
	sets = append(sets, learner.SingleTableSet(NewQTable(1))) // empty table

	for _, set := range sets {
		bin, err := MarshalTableSetBinary("spotify", set, true)
		if err != nil {
			tb.Fatal(err)
		}
		js, err := MarshalTableSetCompact("spotify", set, true)
		if err != nil {
			tb.Fatal(err)
		}
		binSeeds = append(binSeeds, bin, bin[:len(bin)/2], bin[:5])
		jsonSeeds = append(jsonSeeds, js, js[:len(js)/2])
	}
	binSeeds = append(binSeeds,
		[]byte{},
		[]byte("NXTB"),
		[]byte{'N', 'X', 'T', 'B', 1, 0, 0, 0, 2, 0xff, 0xff, 0xff, 0xff, 0x0f},
	)
	jsonSeeds = append(jsonSeeds,
		[]byte(`{}`),
		[]byte(`{"app":"x","actions":0}`),
		[]byte(`{"app":"x","actions":9,"learner":"zzz"}`),
		[]byte(`{"app":"x","actions":9,"q":{"1":[0,0,0,0,0,0,0,0,0]},"visits":{"1":-5}}`),
		[]byte(`{"app":"x","actions":9,"aux":{"b":{"q":{},"visits":{}}}}`),
	)
	return binSeeds, jsonSeeds
}

// varintEdgeSeeds returns NXTB payloads at the edges of the parser's
// one-byte varint fast path: key deltas of 128 and more, visit counts
// of 64 and more and negative ones, 10-byte varints, and the same
// bodies cut off inside a varint and inside a row.
func varintEdgeSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	q := NewQTable(2)
	for _, k := range []StateKey{3, 131, 132, 432, 1 << 40, math.MaxUint64} {
		q.Q[k] = []float64{float64(k), -1}
	}
	for k, v := range map[StateKey]int{3: 63, 7: math.MaxInt64, 131: 64, 132: -1, 432: -64, 1 << 40: -65, math.MaxUint64: math.MinInt64} {
		q.Visits[k] = v
	}
	q.Steps, q.TrainedUS, q.ConvergedAtUS = math.MaxInt64, math.MinInt64, -1
	body, err := MarshalTableSetBinary("edge", learner.SingleTableSet(q), false)
	if err != nil {
		tb.Fatal(err)
	}
	// The rows start after ConvergedAtUS (-1) and the row count (6),
	// with key 3 in one byte; its 16-byte row follows, then key 131's
	// 2-byte delta and row, then key 132's 1-byte delta. The last visit
	// key's delta and count are 10-byte varints.
	p := bytes.Index(body, []byte{1, 6, 3}) + 2
	if _, _, _, err := refUnmarshal(body); err != nil || p < 2 || body[p+35] != 1 {
		tb.Fatalf("edge body does not decode (err=%v) or its rows are not at %d", err, p)
	}
	dup := slices.Clone(body)
	dup[p+35] = 0 // key 131 twice
	seeds := [][]byte{body, dup}
	for _, cut := range []int{p + 1, p + 8, p + 18, p + 19, p + 30, len(body) - 15, len(body) - 5} {
		if _, _, _, err := refUnmarshal(body[:cut]); err == nil {
			tb.Fatalf("body cut at %d of %d decodes", cut, len(body))
		}
		seeds = append(seeds, body[:cut])
	}
	return seeds
}

// FuzzUnmarshalTableSetBinary fuzzes the binary wire decoder: any
// input either errors or decodes to a set whose canonical re-encoding
// is a decode fixed point. Panics and unbounded allocations are the
// bugs this hunts. It is also a differential fuzz of the parser:
// UnmarshalSortedSetBinary, with its one-byte varint fast path and
// rows left in the payload, accepts and rejects exactly what
// refUnmarshal, a plain encoding/binary decoder that copies every row
// out, does, with the same keys, row bits, visit counts and metadata;
// the table-set decode and SortTableSet hold the same set. Decoding
// into a set already used — a larger two-role set marked by
// ClampOnRead — gives what a fresh decode gives, and the used set then
// decodes its first payload again as it did before.
func FuzzUnmarshalTableSetBinary(f *testing.F) {
	binSeeds, _ := fuzzSeedPayloads(f)
	for _, s := range append(binSeeds, varintEdgeSeeds(f)...) {
		f.Add(s)
	}
	used, err := MarshalTableSetBinary("used", binTestSet(), true)
	if err != nil {
		f.Fatal(err)
	}
	_, usedRef, _, err := refUnmarshal(used)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rApp, ref, rTrained, rErr := refUnmarshal(data)
		app, sorted, trained, err := UnmarshalSortedSetBinary(data)
		if (err == nil) != (rErr == nil) {
			t.Fatalf("parser err %v, reference err %v", err, rErr)
		}
		reused := new(SortedSet)
		if _, _, err := reused.DecodeBinary(used); err != nil {
			t.Fatal(err)
		}
		reused.ClampOnRead(1, func(float64) float64 { return 0 })
		app3, trained3, err3 := reused.DecodeBinary(data)
		if (err3 == nil) != (err == nil) {
			t.Fatalf("decode into a used set err %v, fresh decode err %v", err3, err)
		}
		if err == nil {
			if app3 != app || trained3 != trained {
				t.Fatalf("decode into a used set app/trained %q/%v, fresh %q/%v", app3, trained3, app, trained)
			}
			if msg := ref.differs(reused); msg != "" {
				t.Fatalf("decode into a used set differs from the reference: %s", msg)
			}
		}
		if _, _, err := reused.DecodeBinary(used); err != nil {
			t.Fatal(err)
		}
		if msg := usedRef.differs(reused); msg != "" {
			t.Fatalf("used set decoded again differs from the reference: %s", msg)
		}
		if err != nil {
			return
		}
		if app != rApp || trained != rTrained {
			t.Fatalf("parser app/trained %q/%v, reference %q/%v", app, trained, rApp, rTrained)
		}
		if msg := ref.differs(sorted); msg != "" {
			t.Fatalf("parser and reference differ: %s", msg)
		}
		set := sorted.TableSet()
		sameSorted(t, sorted, set)
		resorted, err := SortTableSet(set)
		if err != nil {
			t.Fatalf("decoded set does not sort: %v", err)
		}
		sameSorted(t, resorted, set)
		re, err := MarshalTableSetBinary(app, set, trained)
		if err != nil {
			t.Fatalf("decoded set does not re-encode: %v", err)
		}
		app2, set2, trained2, err := UnmarshalTableSetBinary(re)
		if err != nil {
			t.Fatalf("re-encoded set does not decode: %v", err)
		}
		if app2 != app || trained2 != trained {
			t.Fatalf("app/trained unstable: %q/%v vs %q/%v", app, trained, app2, trained2)
		}
		re2, err := MarshalTableSetBinary(app2, set2, trained2)
		if err != nil || !bytes.Equal(re, re2) {
			t.Fatalf("canonical encoding not a fixed point (err=%v)", err)
		}
	})
}

// refSet is a table set as refUnmarshal decodes it, each role's rows
// copied out of the payload into q.
type refSet struct {
	learner string
	actions int
	roles   []refTable
}

type refTable struct {
	role                            string
	keys                            []StateKey
	q                               []float64
	visitKeys                       []StateKey
	visits                          []int
	steps, trainedUS, convergedAtUS int64
}

// refReader is refUnmarshal's cursor: every varint goes through
// encoding/binary.
type refReader struct {
	data []byte
	off  int
}

func (r *refReader) remaining() int { return len(r.data) - r.off }

func (r *refReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *refReader) varint() (int64, error) {
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *refReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(r.remaining()) {
		return "", fmt.Errorf("string length %d exceeds %d remaining bytes", n, r.remaining())
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *refReader) key(prev uint64, first bool) (uint64, error) {
	d, err := r.uvarint()
	if err != nil || first {
		return d, err
	}
	if d == 0 || prev+d < prev {
		return 0, fmt.Errorf("bad key delta %d after %d", d, prev)
	}
	return prev + d, nil
}

// refUnmarshal is the reference NXTB decoder the parser is fuzzed
// against: the wire layout of codec.go read field by field with
// encoding/binary's varint decoders, rows decoded into a float64 slab,
// and the same bounds and registry checks.
func refUnmarshal(data []byte) (app string, set *refSet, trained bool, err error) {
	if len(data) < len(binMagic)+2 || string(data[:len(binMagic)]) != binMagic ||
		data[len(binMagic)] != binVersion || data[len(binMagic)+1]&^flagTrained != 0 {
		return "", nil, false, fmt.Errorf("bad header")
	}
	trained = data[len(binMagic)+1]&flagTrained != 0
	r := &refReader{data: data, off: len(binMagic) + 2}
	if app, err = r.str(); err != nil {
		return "", nil, false, err
	}
	name, err := r.str()
	if err != nil {
		return "", nil, false, err
	}
	actions64, err := r.uvarint()
	if err != nil {
		return "", nil, false, err
	}
	if actions64 == 0 || actions64 > maxBinActions {
		return "", nil, false, fmt.Errorf("action count %d", actions64)
	}
	actions := int(actions64)
	roleCount, err := r.uvarint()
	if err != nil {
		return "", nil, false, err
	}
	if roleCount == 0 || roleCount > uint64(r.remaining()/3)+1 {
		return "", nil, false, fmt.Errorf("role count %d", roleCount)
	}
	set = &refSet{learner: learner.Normalize(name), actions: actions, roles: make([]refTable, roleCount)}
	layout := &TableSet{Learner: set.learner}
	for i := range set.roles {
		t := &set.roles[i]
		if t.role, err = r.str(); err != nil {
			return "", nil, false, err
		}
		layout.Roles = append(layout.Roles, RoleTable{Role: t.role, Table: &QTable{Actions: actions}})
		if i == 0 {
			for _, v := range []*int64{&t.steps, &t.trainedUS, &t.convergedAtUS} {
				if *v, err = r.varint(); err != nil {
					return "", nil, false, err
				}
			}
		}
		if err := r.rows(t, actions); err != nil {
			return "", nil, false, err
		}
		if err := r.visits(t); err != nil {
			return "", nil, false, err
		}
	}
	if r.remaining() != 0 {
		return "", nil, false, fmt.Errorf("%d trailing bytes", r.remaining())
	}
	if err := learner.ValidateSet(layout); err != nil {
		return "", nil, false, err
	}
	return app, set, trained, nil
}

func (r *refReader) rows(t *refTable, actions int) error {
	count, err := r.uvarint()
	if err != nil {
		return err
	}
	rowBytes := 8 * actions
	if count > uint64(r.remaining())/uint64(1+rowBytes) {
		return fmt.Errorf("q entry count %d", count)
	}
	t.keys = make([]StateKey, count)
	t.q = make([]float64, int(count)*actions)
	prev := uint64(0)
	for i := range t.keys {
		k, err := r.key(prev, i == 0)
		if err != nil {
			return err
		}
		prev = k
		t.keys[i] = StateKey(k)
		if r.remaining() < rowBytes {
			return fmt.Errorf("truncated row at offset %d", r.off)
		}
		for j := range actions {
			t.q[i*actions+j] = math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off+8*j:]))
		}
		r.off += rowBytes
	}
	return nil
}

func (r *refReader) visits(t *refTable) error {
	count, err := r.uvarint()
	if err != nil {
		return err
	}
	if count > uint64(r.remaining())/2 {
		return fmt.Errorf("visit entry count %d", count)
	}
	t.visitKeys = make([]StateKey, count)
	t.visits = make([]int, count)
	prev := uint64(0)
	for i := range t.visitKeys {
		k, err := r.key(prev, i == 0)
		if err != nil {
			return err
		}
		prev = k
		v, err := r.varint()
		if err != nil {
			return err
		}
		t.visitKeys[i] = StateKey(k)
		t.visits[i] = int(v)
	}
	return nil
}

// differs describes the first difference between ref and sorted, or
// returns "" when they hold the same set.
func (ref *refSet) differs(sorted *SortedSet) string {
	if sorted.Learner != ref.learner || sorted.Actions != ref.actions || len(sorted.Roles) != len(ref.roles) {
		return fmt.Sprintf("layout %s/%d/%d roles, reference %s/%d/%d roles", sorted.Learner, sorted.Actions,
			len(sorted.Roles), ref.learner, ref.actions, len(ref.roles))
	}
	a := ref.actions
	for i := range ref.roles {
		st, rt := &sorted.Roles[i], &ref.roles[i]
		switch {
		case st.Role != rt.role:
			return fmt.Sprintf("role %d named %q, reference %q", i, st.Role, rt.role)
		case st.Steps != rt.steps || st.TrainedUS != rt.trainedUS || st.ConvergedAtUS != rt.convergedAtUS:
			return fmt.Sprintf("role %q metadata differs", rt.role)
		case !slices.Equal(st.Keys, rt.keys) || !slices.Equal(st.VisitKeys, rt.visitKeys) || !slices.Equal(st.Visits, rt.visits):
			return fmt.Sprintf("role %q keys or visit counts differ", rt.role)
		}
		for j := range rt.keys {
			if !slices.Equal(rowBits(sortedRow(st, j, a)), rowBits(rt.q[j*a:(j+1)*a])) {
				return fmt.Sprintf("role %q row %d differs", rt.role, j)
			}
		}
	}
	return ""
}

// sameSorted fails t unless sorted holds exactly set's tables: the same
// learner, action count and roles, each role's metadata, its rows (bit
// for bit) under strictly ascending keys, and its visit counts.
func sameSorted(t *testing.T, sorted *SortedSet, set *TableSet) {
	t.Helper()
	if sorted.Learner != set.Learner || sorted.Actions != set.Primary().Actions || len(sorted.Roles) != len(set.Roles) {
		t.Fatalf("sorted layout %s/%d/%d roles, table set %s/%d/%d roles", sorted.Learner, sorted.Actions,
			len(sorted.Roles), set.Learner, set.Primary().Actions, len(set.Roles))
	}
	a := sorted.Actions
	for i, r := range set.Roles {
		st, tt := &sorted.Roles[i], r.Table
		if st.Role != r.Role || st.Steps != tt.Steps || st.TrainedUS != tt.TrainedUS || st.ConvergedAtUS != tt.ConvergedAtUS {
			t.Fatalf("role %d: sorted %q steps %d/%d/%d, table set %q steps %d/%d/%d", i, st.Role, st.Steps,
				st.TrainedUS, st.ConvergedAtUS, r.Role, tt.Steps, tt.TrainedUS, tt.ConvergedAtUS)
		}
		if len(st.Keys) != len(tt.Q) || len(st.VisitKeys) != len(tt.Visits) || len(st.Visits) != len(st.VisitKeys) {
			t.Fatalf("role %q: sorted holds %d rows and %d visit counts, table set %d and %d",
				r.Role, len(st.Keys), len(st.VisitKeys), len(tt.Q), len(tt.Visits))
		}
		for j, k := range st.Keys {
			row, ok := tt.Q[k]
			if !ok || (j > 0 && k <= st.Keys[j-1]) || !reflect.DeepEqual(rowBits(row), rowBits(sortedRow(st, j, a))) {
				t.Fatalf("role %q: row %d (state %d) differs or is out of order", r.Role, j, k)
			}
		}
		for j, k := range st.VisitKeys {
			v, ok := tt.Visits[k]
			if !ok || (j > 0 && k <= st.VisitKeys[j-1]) || v != st.Visits[j] {
				t.Fatalf("role %q: visit count %d (state %d) differs or is out of order", r.Role, j, k)
			}
		}
	}
}

// sortedRow returns a copy of row i of a table with the given action
// count.
func sortedRow(t *SortedTable, i, actions int) []float64 {
	row := make([]float64, actions)
	t.RowInto(i, row)
	return row
}

// rowBits returns a row's float64 bit patterns, so NaNs compare.
func rowBits(row []float64) []uint64 {
	out := make([]uint64, len(row))
	for i, v := range row {
		out[i] = math.Float64bits(v)
	}
	return out
}

// FuzzUnmarshalTableSet fuzzes the JSON wire decoder with the same
// property: accepted inputs must round-trip through the canonical
// marshaler to a stable fixed point.
func FuzzUnmarshalTableSet(f *testing.F) {
	_, jsonSeeds := fuzzSeedPayloads(f)
	for _, s := range jsonSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		app, set, trained, err := UnmarshalTableSet(data)
		if err != nil {
			return
		}
		re, err := MarshalTableSetCompact(app, set, trained)
		if err != nil {
			t.Fatalf("decoded set does not re-marshal: %v", err)
		}
		// Note: app is compared only after one canonicalization round —
		// encoding/json coerces invalid UTF-8 to U+FFFD at marshal time,
		// so a hostile raw app string legitimately changes once.
		app2, set2, trained2, err := UnmarshalTableSet(re)
		if err != nil {
			t.Fatalf("canonical JSON does not decode: %v", err)
		}
		if trained2 != trained {
			t.Fatalf("trained flag unstable: %v vs %v", trained, trained2)
		}
		re2, err := MarshalTableSetCompact(app2, set2, trained2)
		if err != nil || !bytes.Equal(re, re2) {
			t.Fatalf("canonical JSON not a fixed point (err=%v)", err)
		}
	})
}
