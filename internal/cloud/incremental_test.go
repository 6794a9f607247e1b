package cloud

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
)

// randFillTable populates a table with random rows, mixed visit
// weights (positive, zero, absent), and metadata — every weight shape
// mergeTables distinguishes.
func randFillTable(rng *rand.Rand, t *core.QTable, states int) {
	for k := 0; k < states; k++ {
		s := core.StateKey(rng.Intn(120))
		row := make([]float64, t.Actions)
		for i := range row {
			row[i] = rng.NormFloat64()
		}
		t.Q[s] = row
		switch rng.Intn(4) {
		case 0:
			// seen but unweighted: exercises the w<=0 → 1 floor
		case 1:
			t.Visits[s] = 0
		default:
			t.Visits[s] = 1 + rng.Intn(200)
		}
	}
	if rng.Intn(2) == 0 {
		// A visit count without a row is legal and must not merge.
		t.Visits[core.StateKey(1000+rng.Intn(5))] = 1 + rng.Intn(9)
	}
	t.Steps = int64(rng.Intn(10_000))
	t.TrainedUS = int64(rng.Intn(1_000_000))
}

// randDeviceSet builds a random table set with the named learner's
// exact role layout.
func randDeviceSet(rng *rand.Rand, name string, actions int) *learner.TableSet {
	set := learner.Must(name, actions).Snapshot()
	for _, r := range set.Roles {
		randFillTable(rng, r.Table, 3+rng.Intn(12))
	}
	return set
}

// mutateDeviceSet clones a set and perturbs a few states per role —
// the realistic re-upload shape where most of the table is unchanged,
// so the incremental path's clean-state aliasing actually engages.
func mutateDeviceSet(rng *rand.Rand, prev *learner.TableSet) *learner.TableSet {
	next := prev.Clone()
	for _, r := range next.Roles {
		t := r.Table
		for i := 1 + rng.Intn(3); i > 0; i-- {
			s := core.StateKey(rng.Intn(120))
			switch rng.Intn(5) {
			case 0: // drop the state entirely
				delete(t.Q, s)
				delete(t.Visits, s)
			case 1: // bump only the weight
				if _, ok := t.Q[s]; ok {
					t.Visits[s] = 1 + rng.Intn(300)
				}
			default: // rewrite the row
				row := make([]float64, t.Actions)
				for j := range row {
					row[j] = rng.NormFloat64()
				}
				t.Q[s] = row
				t.Visits[s] = 1 + rng.Intn(200)
			}
		}
		t.Steps += int64(rng.Intn(500))
		t.TrainedUS += int64(rng.Intn(5_000))
	}
	return next
}

func setBytes(t *testing.T, set *learner.TableSet) string {
	t.Helper()
	data, err := core.MarshalTableSetCompact("app", set, true)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestMergerDifferentialByteIdentity is the tentpole pin: across every
// registered learner, several fleet sizes, and a dozen federation
// epochs of partial re-uploads (mutations, dropped states, weight-only
// changes, a device joining mid-run), the incremental
// Merge output must be byte-identical to a from-scratch JoinDevices
// over the same uploads.
func TestMergerDifferentialByteIdentity(t *testing.T) {
	for _, name := range learner.Names() {
		for _, fleet := range []int{1, 3, 17} {
			t.Run(fmt.Sprintf("%s/fleet=%d", name, fleet), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(7919*fleet + len(name))))
				uploads := make(map[string]*learner.TableSet)
				for i := 0; i < fleet; i++ {
					uploads[fmt.Sprintf("dev-%03d", i)] = randDeviceSet(rng, name, 9)
				}
				m := NewMerger()
				got, devices, err := m.Rebuild(uploads)
				if err != nil {
					t.Fatal(err)
				}
				if len(devices) != fleet {
					t.Fatalf("rebuild saw %d devices, want %d", len(devices), fleet)
				}
				want, _, err := JoinDevices(uploads)
				if err != nil {
					t.Fatal(err)
				}
				if setBytes(t, got) != setBytes(t, want) {
					t.Fatal("rebuild diverges from JoinDevices")
				}

				ids := func() []string {
					out := make([]string, 0, len(uploads))
					for d := range uploads {
						out = append(out, d)
					}
					return out
				}
				for epoch := 0; epoch < 12; epoch++ {
					all := ids()
					for j := 1 + rng.Intn(len(all)); j > 0; j-- {
						d := all[rng.Intn(len(all))]
						var next *learner.TableSet
						if rng.Intn(4) == 0 {
							next = randDeviceSet(rng, name, 9) // full rewrite
						} else {
							next = mutateDeviceSet(rng, uploads[d])
						}
						uploads[d] = next
						if !m.Upload(d, next) {
							t.Fatalf("epoch %d: same-layout re-upload invalidated the arena", epoch)
						}
					}
					if epoch == 5 {
						// A device joining mid-run takes a column in place.
						d := fmt.Sprintf("new-%03d", epoch)
						next := randDeviceSet(rng, name, 9)
						if !m.Upload(d, next) {
							t.Fatal("new device refused by the arena")
						}
						uploads[d] = next
					}
					got := m.Merge()
					want, _, err := JoinDevices(uploads)
					if err != nil {
						t.Fatal(err)
					}
					if setBytes(t, got) != setBytes(t, want) {
						t.Fatalf("%s fleet=%d epoch=%d: incremental merge diverges from scratch merge", name, fleet, epoch)
					}
				}
				// A merge round with zero uploads (everything clean) must
				// still reproduce the same bytes.
				clean := m.Merge()
				want2, _, err := JoinDevices(uploads)
				if err != nil {
					t.Fatal(err)
				}
				if setBytes(t, clean) != setBytes(t, want2) {
					t.Fatal("clean-round merge diverges")
				}
			})
		}
	}
}

// TestMergerStructuralInvalidation: every layout change a hostile or
// reconfigured device could ship must invalidate the arena instead of
// corrupting it.
func TestMergerStructuralInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	uploads := map[string]*learner.TableSet{
		"dev-0": randDeviceSet(rng, "watkins", 9),
		"dev-1": randDeviceSet(rng, "watkins", 9),
	}
	m := NewMerger()
	if _, _, err := m.Rebuild(uploads); err != nil {
		t.Fatal(err)
	}
	cases := map[string]*learner.TableSet{
		"different learner":      randDeviceSet(rng, "doubleq", 9),
		"different action count": randDeviceSet(rng, "watkins", 6),
		"nil set":                nil,
		"empty set":              {Learner: "watkins"},
	}
	for name, next := range cases {
		if m.Upload("dev-0", next) {
			t.Fatalf("%s accepted", name)
		}
	}
	if m.UploadDelta("dev-new", sorted(t, mutateDeviceSet(rng, uploads["dev-0"]))) {
		t.Fatal("delta from a device the arena does not know accepted")
	}
	// The arena stayed intact for valid traffic after the refusals.
	next := mutateDeviceSet(rng, uploads["dev-1"])
	uploads["dev-1"] = next
	if !m.Upload("dev-1", next) {
		t.Fatal("valid upload refused after structural refusals")
	}
	got := m.Merge()
	want, _, err := JoinDevices(uploads)
	if err != nil {
		t.Fatal(err)
	}
	if setBytes(t, got) != setBytes(t, want) {
		t.Fatal("arena corrupted by refused uploads")
	}
}

// TestMergerAliasesCleanRows: the perf contract behind the 10k-device
// target — a re-upload touching one state must leave every other
// state's merged row physically shared with the previous output, not
// recomputed.
func TestMergerAliasesCleanRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	uploads := map[string]*learner.TableSet{
		"dev-0": randDeviceSet(rng, "watkins", 9),
		"dev-1": randDeviceSet(rng, "watkins", 9),
	}
	m := NewMerger()
	first, _, err := m.Rebuild(uploads)
	if err != nil {
		t.Fatal(err)
	}
	// Touch exactly one state on one device.
	next := uploads["dev-0"].Clone()
	var touched core.StateKey
	for s := range next.Primary().Q {
		touched = s
		break
	}
	next.Primary().Q[touched][0] += 1
	uploads["dev-0"] = next
	if !m.Upload("dev-0", next) {
		t.Fatal("upload refused")
	}
	second := m.Merge()
	prevQ := first.Primary().Q
	var aliased, recomputed int
	for s, row := range second.Primary().Q {
		if prev, ok := prevQ[s]; ok && &prev[0] == &row[0] {
			aliased++
		} else if s == touched {
			recomputed++
		}
	}
	if recomputed != 1 {
		t.Fatalf("touched state not recomputed (recomputed=%d)", recomputed)
	}
	if aliased != len(second.Primary().Q)-1 {
		t.Fatalf("clean states reallocated: %d aliased of %d", aliased, len(second.Primary().Q))
	}
	// And the recomputed output still matches from-scratch.
	want, _, err := JoinDevices(uploads)
	if err != nil {
		t.Fatal(err)
	}
	if setBytes(t, second) != setBytes(t, want) {
		t.Fatal("single-state merge diverges")
	}
}

// overlayDelta is the reference delta rule: the delta's rows and visit
// counts replace the base's, everything else carries over, and the
// delta's metadata is absolute.
func overlayDelta(base, delta *learner.TableSet) *learner.TableSet {
	next := base.Clone()
	for i, r := range delta.Roles {
		nt := next.Roles[i].Table
		for s, row := range r.Table.Q {
			nt.Q[s] = row
		}
		for s, v := range r.Table.Visits {
			nt.Visits[s] = v
		}
		nt.Steps, nt.TrainedUS = r.Table.Steps, r.Table.TrainedUS
	}
	return next
}

// sorted converts a delta into the sorted form UploadDelta takes.
func sorted(tb testing.TB, set *learner.TableSet) *core.SortedSet {
	tb.Helper()
	out, err := core.SortTableSet(set)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// randDelta builds a delta over the learner's layout: rewritten or new
// rows with and without a visit count, and visit counts without a row
// (re-weighting an existing row, or remembered for a later one).
func randDelta(rng *rand.Rand, name string, actions int) *learner.TableSet {
	set := learner.Must(name, actions).Snapshot()
	for _, r := range set.Roles {
		t := r.Table
		for i := rng.Intn(6); i > 0; i-- {
			s := core.StateKey(rng.Intn(40))
			kind := rng.Intn(3)
			if kind != 2 {
				row := make([]float64, actions)
				for j := range row {
					row[j] = rng.NormFloat64()
				}
				t.Q[s] = row
			}
			if kind != 1 {
				t.Visits[s] = rng.Intn(5) // 0 included: floored to weight 1
			}
		}
		t.Steps = int64(rng.Intn(10_000))
		t.TrainedUS = int64(rng.Intn(1_000_000))
	}
	return set
}

// TestMergerUploadDeltaMatchesOverlay pins UploadDelta to the reference
// delta rule: after random deltas, full re-uploads and merges, Merge is
// byte-identical to JoinDevices over the overlaid tables, and so is the
// next Merge after a Rebuild over them.
func TestMergerUploadDeltaMatchesOverlay(t *testing.T) {
	for _, name := range learner.Names() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name))))
			uploads := make(map[string]*learner.TableSet)
			for i := 0; i < 5; i++ {
				set := learner.Must(name, 4).Snapshot()
				for _, r := range set.Roles {
					randFillTable(rng, r.Table, 3+rng.Intn(8))
				}
				uploads[fmt.Sprintf("dev-%d", i)] = set
			}
			m := NewMerger()
			if _, _, err := m.Rebuild(uploads); err != nil {
				t.Fatal(err)
			}
			check := func(what string, got *learner.TableSet) {
				t.Helper()
				want, _, err := JoinDevices(uploads)
				if err != nil {
					t.Fatal(err)
				}
				if setBytes(t, got) != setBytes(t, want) {
					t.Fatalf("%s diverges from JoinDevices over the overlaid tables", what)
				}
			}
			for epoch := 0; epoch < 40; epoch++ {
				for j := 1 + rng.Intn(4); j > 0; j-- {
					d := fmt.Sprintf("dev-%d", rng.Intn(5))
					if rng.Intn(6) == 0 {
						next := randDeviceSet(rng, name, 4)
						uploads[d] = next
						if !m.Upload(d, next) {
							t.Fatal("full re-upload refused")
						}
						continue
					}
					delta := randDelta(rng, name, 4)
					uploads[d] = overlayDelta(uploads[d], delta)
					if !m.UploadDelta(d, sorted(t, delta)) {
						t.Fatal("delta refused")
					}
				}
				check(fmt.Sprintf("epoch %d merge", epoch), m.Merge())
				if epoch%10 == 9 {
					m = NewMerger()
					rebuilt, _, err := m.Rebuild(uploads)
					if err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("epoch %d rebuild", epoch), rebuilt)
				}
			}
			// Refusals leave the arena as it was.
			if m.UploadDelta("dev-new", sorted(t, randDelta(rng, name, 4))) {
				t.Fatal("delta from an unknown device accepted")
			}
			if m.UploadDelta("dev-0", sorted(t, randDelta(rng, name, 5))) {
				t.Fatal("delta with a different action count accepted")
			}
			check("merge after refusals", m.Merge())
		})
	}
}

// sparseTable builds a table with a random row for each given state,
// a visit count of seed+s for each, and the given metadata. The values
// are drawn from seed, and their weighted sums round, so summing in
// another order changes the merged bytes.
func sparseTable(actions int, seed float64, states ...int) *core.QTable {
	rng := rand.New(rand.NewSource(int64(seed)))
	t := core.NewQTable(actions)
	for _, s := range states {
		row := make([]float64, actions)
		for a := range row {
			row[a] = rng.NormFloat64()
		}
		t.Q[core.StateKey(s)] = row
		t.Visits[core.StateKey(s)] = int(seed) + s
	}
	t.Steps = int64(seed) * 10
	t.TrainedUS = int64(seed) * 100
	return t
}

func span(from, to int) []int {
	var out []int
	for s := from; s < to; s++ {
		out = append(out, s)
	}
	return out
}

// TestMergerSparseColumns walks the device-major arena through the
// shapes its columns take: devices holding disjoint, overlapping and
// identical state sets across several 64-state index blocks; deltas
// bringing states new to the device and new to the arena; full
// uploads that drop states, one of them the last holder of a state;
// visit counts without a row; and a visit count too wide for 32 bits.
// After every step, Merge and a Rebuild over the shadow tables must
// both be byte-identical (NXTB) to JoinDevices over them, and the state
// index must keep its invariants.
func TestMergerSparseColumns(t *testing.T) {
	const a = 4
	o := newMergerOracle(t)
	single := func(tb *core.QTable) *learner.TableSet { return learner.SingleTableSet(tb) }
	o.upload("dev-a", single(sparseTable(a, 1, span(0, 64)...)))
	o.upload("dev-b", single(sparseTable(a, 2, span(64, 128)...)))
	o.upload("dev-c", single(sparseTable(a, 3, span(32, 96)...)))
	o.upload("dev-d", single(sparseTable(a, 4, span(0, 150)...)))
	o.upload("dev-e", single(sparseTable(a, 5, span(0, 150)...)))
	o.upload("dev-f", single(sparseTable(a, 6, 7)))
	steps := []struct {
		name string
		run  func()
	}{
		{"the devices join", func() {}},
		{"delta with states new to the device", func() {
			o.delta("dev-b", single(sparseTable(a, 7, span(0, 10)...)))
		}},
		{"delta with states new to the arena", func() {
			o.delta("dev-a", single(sparseTable(a, 8, span(200, 270)...)))
		}},
		{"full upload dropping states", func() {
			o.upload("dev-c", single(sparseTable(a, 9, append(span(40, 50), 300)...)))
		}},
		{"the last holder drops a state", func() {
			o.upload("dev-c", single(sparseTable(a, 10, span(40, 50)...)))
		}},
		{"a freed state id is reused", func() {
			o.delta("dev-f", single(sparseTable(a, 11, 400, 401)))
		}},
		{"visit counts without a row", func() {
			d := sparseTable(a, 12)
			d.Visits[5] = 40   // dev-f has no row for state 5: remembered
			d.Visits[7] = 3    // re-weights dev-f's row for state 7
			d.Visits[500] = 9  // new to the arena: remembered
			d.Visits[501] = -4 // nothing to remember
			o.delta("dev-f", single(d))
		}},
		{"a row arrives for a remembered count", func() {
			d := sparseTable(a, 13, 5, 500)
			delete(d.Visits, 5)
			delete(d.Visits, 500)
			o.delta("dev-f", single(d))
		}},
		{"a visit count past 32 bits", func() {
			d := sparseTable(a, 14, 60)
			d.Visits[60] = int(wideVisits)
			d.Visits[61] = int(wideVisits) + 1 // re-weights dev-e's row
			o.delta("dev-e", single(d))
		}},
		{"the wide count is replaced", func() {
			o.delta("dev-e", single(sparseTable(a, 15, 60)))
		}},
		{"every device re-uploads the same states", func() {
			for i, d := range []string{"dev-a", "dev-b", "dev-c", "dev-d", "dev-e", "dev-f"} {
				o.upload(d, single(sparseTable(a, float64(16+i), span(0, 150)...)))
			}
		}},
		// The round trip above rebuilt the arena over just these states,
		// so now every column holds exactly the dirty states: the
		// accumulator runs two devices' rows at a time.
		{"again, with nothing else in the arena", func() {
			for i, d := range []string{"dev-a", "dev-b", "dev-c", "dev-d", "dev-e", "dev-f"} {
				o.upload(d, single(sparseTable(a, float64(22+i), span(0, 150)...)))
			}
		}},
		{"a delta touches one block of identical columns", func() {
			o.delta("dev-d", single(sparseTable(a, 30, span(64, 128)...)))
			o.delta("dev-e", single(sparseTable(a, 31, span(64, 128)...)))
		}},
	}
	for _, st := range steps {
		st.run()
		o.checkIndex(st.name)
		o.merge(st.name)
		o.checkIndex(st.name + ": merge")
		o.roundTrip(st.name)
		o.checkIndex(st.name + ": round trip")
	}
}

// TestMergerDeltaNewStatesAllocsFlat: a delta bringing k states new to
// a large arena merges them into the state index in one pass, and every
// slice that grows with the sids grows at most once, so the delta's
// allocation count does not depend on k — up to k equal to the union,
// where growing per state would reallocate several times over. Each of
// those slices starts with no spare capacity, as the arena's uploads
// may leave it, so that every k must grow each of them.
func TestMergerDeltaNewStatesAllocsFlat(t *testing.T) {
	const union = 100 * 1024 // a whole number of 64-sid index blocks
	even := make([]int, union)
	for i := range even {
		even[i] = 2 * i
	}
	uploads := map[string]*learner.TableSet{
		"dev-a": learner.SingleTableSet(sparseTable(4, 1, even...)),
		"dev-b": learner.SingleTableSet(sparseTable(4, 2, even[:64]...)),
	}
	allocs := func(k int) uint64 {
		m := NewMerger()
		if _, _, err := m.Rebuild(uploads); err != nil {
			t.Fatal(err)
		}
		ra := m.roles[0]
		ra.keys, ra.holders, ra.dirty = slices.Clip(ra.keys), slices.Clip(ra.holders), slices.Clip(ra.dirty)
		ra.index, ra.indexSid = slices.Clip(ra.index), slices.Clip(ra.indexSid)
		m.staged, m.stagedQ, m.fresh = nil, nil, nil
		odd := make([]int, k) // new to the arena, spread through it
		for i := range odd {
			odd[i] = 2*(i*union/k) + 1
		}
		delta := sorted(t, learner.SingleTableSet(sparseTable(4, 3, odd...)))
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ok := m.UploadDelta("dev-b", delta)
		runtime.ReadMemStats(&after)
		if !ok {
			t.Fatal("delta refused")
		}
		if fault := m.roles[0].indexFault(); fault != "" {
			t.Fatalf("k=%d: %s", k, fault)
		}
		if got := len(m.roles[0].index); got != union+k {
			t.Fatalf("k=%d: index holds %d states, want %d", k, got, union+k)
		}
		return after.Mallocs - before.Mallocs
	}
	one := allocs(1)
	for _, k := range []int{64, 4096, union} {
		if n := allocs(k); n != one {
			t.Fatalf("a delta with %d new states allocates %d times, with 1 new state %d", k, n, one)
		}
	}
}

// TestMergerJoinKeepsCleanRows: devices that join a merged fleet take
// columns in place, and the round after them recomputes only their
// states. Its output is byte-identical (NXTB) to JoinDevices over every
// upload, and every state no joining device holds keeps the previous
// round's row, the same backing array.
func TestMergerJoinKeepsCleanRows(t *testing.T) {
	for _, name := range learner.Names() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name))))
			set := func(states int) *learner.TableSet {
				set := learner.Must(name, 4).Snapshot()
				for _, r := range set.Roles {
					randFillTable(rng, r.Table, states)
				}
				return set
			}
			o := newMergerOracle(t)
			o.upload("dev-b", set(80))
			o.upload("dev-d", set(80))
			o.merge("first round")
			prev := o.m.merged
			// Joiners sort before, between and after the merged devices,
			// and join out of order: their shared states' weighted sums
			// round, so the merge must add them in sorted-device order.
			joiners := []*learner.TableSet{set(20), set(20), set(20)}
			for i, d := range []string{"dev-e", "dev-a", "dev-c"} {
				o.upload(d, joiners[i])
			}
			o.merge("join round")
			for r, role := range o.m.merged.Roles {
				held := map[core.StateKey]bool{}
				for _, set := range joiners {
					for s := range set.Roles[r].Table.Q {
						held[s] = true
					}
				}
				prevQ, clean := prev.Roles[r].Table.Q, 0
				for s, row := range role.Table.Q {
					if held[s] {
						continue
					}
					if old, ok := prevQ[s]; !ok || &old[0] != &row[0] {
						t.Fatalf("role %q: state %d, which no joining device holds, was recomputed", role.Role, s)
					}
					clean++
				}
				if clean == 0 {
					t.Fatalf("role %q: every state was dirty, so the check saw nothing", role.Role)
				}
			}
		})
	}
}

// TestMergerSettlesNewStatesInKeyOrder: the states a round's uploads
// bring interleave, and each Merge renumbers them in key order, so the
// sids each round hands out ascend with their keys. The merges stay
// byte-identical to JoinDevices, and the index keeps its invariants.
func TestMergerSettlesNewStatesInKeyOrder(t *testing.T) {
	o := newMergerOracle(t)
	single := func(tb *core.QTable) *learner.TableSet { return learner.SingleTableSet(tb) }
	settled := 0
	for round, devs := range [][]string{{"dev-c", "dev-a", "dev-b"}, {"dev-d", "dev-a"}} {
		for i, d := range devs {
			// Device i of the round holds every third state from i, in
			// a range each round moves up.
			var states []int
			for s := 100*round + i; s < 100*round+90; s += 3 {
				states = append(states, s)
			}
			o.upload(d, single(sparseTable(4, float64(10*round+i+1), states...)))
		}
		o.merge(fmt.Sprintf("round %d", round))
		o.checkIndex(fmt.Sprintf("round %d", round))
		ra := o.m.roles[0]
		if fresh := ra.keys[settled:]; len(fresh) == 0 || !slices.IsSorted(fresh) {
			t.Fatalf("round %d: the round's sids do not follow key order: %v", round, fresh)
		}
		settled = len(ra.keys)
	}
}

// TestMergerJoinAllocsFlatInDevices: a round in which one device joins
// allocates about as often in a 4096-device arena as in a 64-device
// one: the join appends a column, and Merge sorts the joiner in by one
// merge pass, with no allocation per device already in the arena. (The
// BenchmarkFleetCheckinScale allocs/op ceilings rest on this: an
// allocation per device in a join round shows up there at 10000
// devices.)
func TestMergerJoinAllocsFlatInDevices(t *testing.T) {
	allocs := func(devices int) uint64 {
		set := sorted(t, learner.SingleTableSet(sparseTable(9, 1, span(0, 100)...)))
		m := NewMerger()
		for d := 0; d < devices; d++ {
			if !m.UploadFull(fmt.Sprintf("dev-%05d", 2*d), set) {
				t.Fatal("upload refused")
			}
		}
		m.Merge()
		joiner := sorted(t, learner.SingleTableSet(sparseTable(9, 2, span(50, 150)...)))
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ok := m.UploadFull(fmt.Sprintf("dev-%05d", devices+1), joiner)
		m.Merge()
		runtime.ReadMemStats(&after)
		if !ok {
			t.Fatal("join refused")
		}
		return after.Mallocs - before.Mallocs
	}
	// Slices that grow with the fleet may each reallocate once in the
	// round; a per-device allocation would add thousands.
	const growth = 8
	if small, large := allocs(64), allocs(4096); large > small+growth {
		t.Fatalf("a join round allocates %d times in a 4096-device arena, %d in a 64-device one", large, small)
	}
}
