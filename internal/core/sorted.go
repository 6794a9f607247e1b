package core

import (
	"slices"

	"nextdvfs/internal/learner"
)

// SortedSet is a learner table set in sorted form, the binary wire's
// own shape: per role, the states with a row in strictly ascending key
// order and their rows laid end to end, then the visit counts as a
// second ascending key list. It serves consumers that walk each table
// once in key order, such as a fleet server applying a delta upload,
// and have no use for a QTable's maps.
//
// UnmarshalSortedSetBinary and SortTableSet make sorted sets, and both
// check them as the table-set decoders do; a SortedSet built by hand
// must keep the same invariants: a registered learner and its role
// layout, Actions > 0, keys strictly ascending, len(Q) ==
// len(Keys)*Actions and len(Visits) == len(VisitKeys).
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
	// Keys lists the states with a row; row i is Row(i, actions).
	Keys []StateKey
	Q    []float64
	// Visits[i] is state VisitKeys[i]'s visit count.
	VisitKeys []StateKey
	Visits    []int
	// Steps, TrainedUS and ConvergedAtUS are the table's metadata; the
	// wire carries them on the primary role only.
	Steps, TrainedUS, ConvergedAtUS int64
}

// Row returns row i of a table with the given action count.
func (t *SortedTable) Row(i, actions int) []float64 {
	return t.Q[i*actions : (i+1)*actions : (i+1)*actions]
}

// TableSet fills a TableSet's maps from s. The rows alias s.Q.
func (s *SortedSet) TableSet() *TableSet {
	set := &TableSet{Learner: s.Learner, Roles: make([]RoleTable, len(s.Roles))}
	for i := range s.Roles {
		st := &s.Roles[i]
		t := &QTable{
			Actions:       s.Actions,
			Q:             make(map[StateKey][]float64, len(st.Keys)),
			Visits:        make(map[StateKey]int, len(st.VisitKeys)),
			Steps:         st.Steps,
			TrainedUS:     st.TrainedUS,
			ConvergedAtUS: st.ConvergedAtUS,
		}
		for j, k := range st.Keys {
			t.Q[k] = st.Row(j, s.Actions)
		}
		for j, k := range st.VisitKeys {
			t.Visits[k] = st.Visits[j]
		}
		set.Roles[i] = RoleTable{Role: st.Role, Table: t}
	}
	return set
}

// SortTableSet converts a table set into sorted form, copying its rows.
// It refuses a set that fails learner.ValidateSet, as the decoders do.
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
		st.Q = make([]float64, len(st.Keys)*a)
		for j, k := range st.Keys {
			copy(st.Row(j, a), t.Q[k])
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
