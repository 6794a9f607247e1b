package core

import (
	"bytes"
	"math"
	"reflect"
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

// FuzzUnmarshalTableSetBinary fuzzes the binary wire decoder: any
// input either errors or decodes to a set whose canonical re-encoding
// is a decode fixed point. Panics and unbounded allocations are the
// bugs this hunts. It is also a differential fuzz of the two decode
// outputs: the sorted decode accepts and rejects exactly what the
// table-set decode does and holds the same rows, visits and metadata,
// and SortTableSet turns the table set back into the same sorted form.
func FuzzUnmarshalTableSetBinary(f *testing.F) {
	binSeeds, _ := fuzzSeedPayloads(f)
	for _, s := range binSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		app, set, trained, err := UnmarshalTableSetBinary(data)
		sApp, sorted, sTrained, sErr := UnmarshalSortedSetBinary(data)
		if (err == nil) != (sErr == nil) {
			t.Fatalf("table-set decode err %v, sorted decode err %v", err, sErr)
		}
		if err != nil {
			return
		}
		if sApp != app || sTrained != trained {
			t.Fatalf("sorted decode app/trained %q/%v, table-set decode %q/%v", sApp, sTrained, app, trained)
		}
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
		if len(st.Keys) != len(tt.Q) || len(st.Q) != len(st.Keys)*a || len(st.VisitKeys) != len(tt.Visits) || len(st.Visits) != len(st.VisitKeys) {
			t.Fatalf("role %q: sorted holds %d rows and %d visit counts, table set %d and %d",
				r.Role, len(st.Keys), len(st.VisitKeys), len(tt.Q), len(tt.Visits))
		}
		for j, k := range st.Keys {
			row, ok := tt.Q[k]
			if !ok || (j > 0 && k <= st.Keys[j-1]) || !reflect.DeepEqual(rowBits(row), rowBits(st.Row(j, a))) {
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
