package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"nextdvfs/internal/learner"
)

// SortedSet is a learner table set in sorted form, the binary wire's
// own shape: per role, the states with a row in strictly ascending key
// order, each row still in its wire bytes, then the visit counts as a
// second ascending key list. It serves consumers that walk each table
// once in key order, such as a fleet server applying a delta upload,
// and have no use for a QTable's maps.
//
// DecodeBinary (and UnmarshalSortedSetBinary, a decode into a new set)
// and SortTableSet make sorted sets, and both check them as the
// table-set decoders do; nothing else can, since only this package
// reads and writes the rows' byte form. A set decoded from a payload
// aliases the payload's bytes: its rows are read from them on demand,
// by RowInto, and never written. Whoever owns the payload owns the
// set, and must neither change the bytes nor reuse them while the set
// is in use. A set may be decoded into again, which reuses its slices;
// that ends the previous payload's use.
type SortedSet struct {
	Learner string // normalized registry name
	Actions int
	Roles   []SortedTable
}

// SortedTable is one role table of a SortedSet. Keys and VisitKeys may
// differ, as a QTable's Q and Visits may: a visit count without a row,
// and vice versa.
type SortedTable struct {
	Role string
	// Keys lists the states with a row; RowInto reads row i.
	Keys []StateKey
	// rows holds the rows in their wire form: row i is Actions float64
	// bit patterns, little-endian, from rows[at[i]].
	rows []byte
	at   []int32
	// Visits[i] is state VisitKeys[i]'s visit count.
	VisitKeys []StateKey
	Visits    []int
	// Steps, TrainedUS and ConvergedAtUS are the table's metadata; the
	// wire carries them on the primary role only.
	Steps, TrainedUS, ConvergedAtUS int64
	// clamp, when set, is the rule RowInto applies to a value whose bits
	// below the sign bit exceed top (see SortedSet.ClampOnRead).
	clamp func(float64) float64
	top   uint64
}

// RowInto overwrites dst, whose length is the action count, with row i
// and reports whether any bit of dst changed. On a set marked by
// ClampOnRead, it writes each out-of-range value as the clamp rule
// maps it.
func (t *SortedTable) RowInto(i int, dst []float64) (changed bool) {
	src := t.rows[t.at[i]:][:8*len(dst)]
	top, clamp := t.top, t.clamp
	if clamp == nil {
		top = math.MaxUint64
	}
	var diff uint64
	for j := range dst {
		b := binary.LittleEndian.Uint64(src[8*j:])
		if b&^(1<<63) > top {
			b = math.Float64bits(clamp(math.Float64frombits(b)))
		}
		diff |= b ^ math.Float64bits(dst[j])
		dst[j] = math.Float64frombits(b)
	}
	return diff != 0
}

// ClampOnRead marks s so that RowInto reads each row value that is NaN
// or whose magnitude exceeds limit as clamp(value). Every other value
// is read as its bytes are, and clamp never sees it. The rows' bytes
// are left as they arrived; decoding into s again clears the mark.
func (s *SortedSet) ClampOnRead(limit float64, clamp func(float64) float64) {
	// Below the sign bit, a float64's bits order as its magnitude does,
	// and NaNs sort above every finite value and the infinities.
	top := math.Float64bits(limit)
	for r := range s.Roles {
		s.Roles[r].clamp, s.Roles[r].top = clamp, top
	}
}

// TableSet fills a TableSet's maps from s, decoding each role's rows
// into one slab.
func (s *SortedSet) TableSet() *TableSet {
	a := s.Actions
	set := &TableSet{Learner: s.Learner, Roles: make([]RoleTable, len(s.Roles))}
	for i := range s.Roles {
		st := &s.Roles[i]
		t := &QTable{
			Actions:       a,
			Q:             make(map[StateKey][]float64, len(st.Keys)),
			Visits:        make(map[StateKey]int, len(st.VisitKeys)),
			Steps:         st.Steps,
			TrainedUS:     st.TrainedUS,
			ConvergedAtUS: st.ConvergedAtUS,
		}
		q := make([]float64, len(st.Keys)*a)
		for j, k := range st.Keys {
			row := q[j*a : (j+1)*a : (j+1)*a]
			st.RowInto(j, row)
			t.Q[k] = row
		}
		for j, k := range st.VisitKeys {
			t.Visits[k] = st.Visits[j]
		}
		set.Roles[i] = RoleTable{Role: st.Role, Table: t}
	}
	return set
}

// SortTableSet converts a table set into sorted form, writing its rows
// in their wire form. It refuses a set that fails learner.ValidateSet,
// as the decoders do.
func SortTableSet(set *TableSet) (*SortedSet, error) {
	if err := learner.ValidateSet(set); err != nil {
		return nil, err
	}
	a := set.Primary().Actions
	out := &SortedSet{Learner: learner.Normalize(set.Learner), Actions: a, Roles: make([]SortedTable, len(set.Roles))}
	for i, r := range set.Roles {
		t := r.Table
		st := &out.Roles[i]
		*st = SortedTable{
			Role:          r.Role,
			Keys:          sortedKeys(t.Q),
			VisitKeys:     sortedKeys(t.Visits),
			Steps:         t.Steps,
			TrainedUS:     t.TrainedUS,
			ConvergedAtUS: t.ConvergedAtUS,
		}
		if len(st.Keys)*8*a > math.MaxInt32 {
			return nil, fmt.Errorf("core: role %q holds %d rows, too many for sorted form", r.Role, len(st.Keys))
		}
		st.rows = make([]byte, 0, len(st.Keys)*8*a)
		st.at = make([]int32, len(st.Keys))
		for j, k := range st.Keys {
			st.at[j] = int32(len(st.rows))
			for _, v := range t.Q[k] {
				st.rows = binary.LittleEndian.AppendUint64(st.rows, math.Float64bits(v))
			}
		}
		st.Visits = make([]int, len(st.VisitKeys))
		for j, k := range st.VisitKeys {
			st.Visits[j] = t.Visits[k]
		}
	}
	return out, nil
}

// layout returns s's learner and role layout as a table set without
// rows, for learner.ValidateSet.
func (s *SortedSet) layout() *TableSet {
	set := &TableSet{Learner: s.Learner, Roles: make([]RoleTable, len(s.Roles))}
	t := &QTable{Actions: s.Actions}
	for i := range s.Roles {
		set.Roles[i] = RoleTable{Role: s.Roles[i].Role, Table: t}
	}
	return set
}

// sortedKeys returns m's state keys in ascending order.
func sortedKeys[V any](m map[StateKey]V) []StateKey {
	keys := make([]StateKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
