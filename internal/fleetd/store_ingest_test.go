package fleetd

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"nextdvfs/internal/cloud"
	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
)

// The ingest oracle drives a byte string through the store as a program
// of uploads, deltas and merges, and keeps a shadow of every device's
// table composed the reference way: a full upload replaces the shadow,
// a delta is laid over it with overlayDelta, both sanitized as the store
// sanitizes. After every merge the served policy must be byte-identical
// to cloud.JoinDevices over the shadows. The store holds every device
// only in its merge arena, which new devices join through their first
// full upload, so this pins the arena's one upload walker — its full
// and delta rules, and joins — to overlayDelta's composition.

const (
	ingestActions = 3
	ingestStates  = 16 // small, so devices share states and deltas overlap
	ingestDevices = 12
)

// ingestTape reads operations and values from a byte string; past its
// end every read is 0, so any input is a finite, valid program.
type ingestTape struct {
	data []byte
	off  int
}

func (tp *ingestTape) done() bool { return tp.off >= len(tp.data) }

func (tp *ingestTape) next() int {
	if tp.done() {
		return 0
	}
	b := tp.data[tp.off]
	tp.off++
	return int(b)
}

// value returns a Q-value: usually small, sometimes outside what
// sanitize lets through.
func (tp *ingestTape) value() float64 {
	switch b := tp.next(); b {
	case 255:
		return math.NaN()
	case 254:
		return 1e300
	case 253:
		return -1e300
	default:
		return float64(int8(b)) / 8
	}
}

// visits returns a visit count: usually small, sometimes zero, negative
// or past maxVisitWeight.
func (tp *ingestTape) visits() int {
	b := tp.next()
	switch b % 16 {
	case 0:
		return 0
	case 1:
		return -b
	case 2:
		return maxVisitWeight + b
	default:
		return b%7 + 1
	}
}

// counter returns a Steps/TrainedUS value, sometimes out of range.
func (tp *ingestTape) counter() int64 {
	b := tp.next()
	switch b % 8 {
	case 0:
		return -int64(b)
	case 1:
		return maxCounter + int64(b)
	default:
		return int64(b) * 100
	}
}

// table builds one role table: rows with a visit count, rows whose
// count is omitted, and visit counts without a row (in a delta those
// re-weight an existing row or are remembered until one arrives).
func (tp *ingestTape) table(actions int) *core.QTable {
	t := core.NewQTable(actions)
	for n := tp.next() % 8; n > 0; n-- {
		s := core.StateKey(tp.next() % ingestStates)
		kind := tp.next() % 4
		if kind != 2 {
			row := make([]float64, actions)
			for a := range row {
				row[a] = tp.value()
			}
			t.Q[s] = row
		}
		if kind != 1 {
			t.Visits[s] = tp.visits()
		}
	}
	t.Steps = tp.counter()
	t.TrainedUS = tp.counter()
	t.ConvergedAtUS = tp.counter()
	return t
}

// set builds a table set with the learner's role layout.
func (tp *ingestTape) set(name string, actions int) *learner.TableSet {
	set := learner.Must(name, actions).Snapshot()
	for i := range set.Roles {
		set.Roles[i].Table = tp.table(actions)
	}
	return set
}

// sanitized returns a sanitized copy of set, leaving set as it was: the
// store's one sanitize rule, applied to set in sorted form and read
// back into maps.
func sanitized(t *testing.T, set *learner.TableSet) *learner.TableSet {
	t.Helper()
	c, err := core.SortTableSet(set)
	if err != nil {
		t.Fatal(err)
	}
	sanitizeSorted(c)
	return c.TableSet()
}

// overlayDelta is the reference delta rule over table sets: a fresh
// set whose rows and visit counts are the base's with the delta's laid
// over them, and whose metadata is the delta's.
func overlayDelta(base, delta *learner.TableSet) *learner.TableSet {
	next := &learner.TableSet{Learner: base.Learner, Roles: make([]learner.RoleTable, len(base.Roles))}
	for i := range base.Roles {
		bt, dt := base.Roles[i].Table, delta.Roles[i].Table
		nt := &core.QTable{
			Actions:       bt.Actions,
			Q:             make(map[core.StateKey][]float64, len(bt.Q)+len(dt.Q)),
			Visits:        make(map[core.StateKey]int, len(bt.Visits)+len(dt.Visits)),
			Steps:         dt.Steps,
			TrainedUS:     dt.TrainedUS,
			ConvergedAtUS: dt.ConvergedAtUS,
		}
		for s, row := range bt.Q {
			nt.Q[s] = row
		}
		for s, v := range bt.Visits {
			nt.Visits[s] = v
		}
		for s, row := range dt.Q {
			nt.Q[s] = row
		}
		for s, v := range dt.Visits {
			nt.Visits[s] = v
		}
		next.Roles[i] = learner.RoleTable{Role: base.Roles[i].Role, Table: nt}
	}
	return next
}

// runIngest runs one program against a fresh store and the oracle.
func runIngest(t *testing.T, data []byte) {
	t.Helper()
	tp := &ingestTape{data: data}
	names := learner.Names()
	name := names[tp.next()%len(names)]
	s := NewStoreMaxDevices(0)
	k := Key{App: "spotify", Platform: "note9"}
	shadow := make(map[string]*learner.TableSet)
	gens := make(map[string]int64)

	check := func(step int) {
		t.Helper()
		info, got, err := s.MergeSet(k)
		if len(shadow) == 0 {
			if err == nil {
				t.Fatalf("step %d: merge with no device tables succeeded", step)
			}
			return
		}
		if err != nil {
			t.Fatalf("step %d: merge: %v", step, err)
		}
		want, _, err := cloud.JoinDevices(shadow)
		if err != nil {
			t.Fatalf("step %d: reference join: %v", step, err)
		}
		gotBytes, err := core.MarshalTableSetBinary(k.App, got, true)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes, err := core.MarshalTableSetBinary(k.App, want, true)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("step %d: served policy differs from JoinDevices over the composed uploads", step)
		}
		if info.Devices != len(shadow) {
			t.Fatalf("step %d: merge counted %d devices, want %d", step, info.Devices, len(shadow))
		}
	}

	for step := 0; !tp.done(); step++ {
		op := tp.next() % 8
		dev := fmt.Sprintf("dev-%d", tp.next()%ingestDevices)
		base, known := shadow[dev]
		switch op {
		case 0, 1: // full upload: a new device, or a replacement that may drop states
			set := tp.set(name, ingestActions)
			want := sanitized(t, set)
			_, gen, err := s.UploadSetGen(k, dev, set)
			if err != nil {
				t.Fatalf("step %d: full upload: %v", step, err)
			}
			if gen != gens[dev]+1 {
				t.Fatalf("step %d: full upload gen %d, want %d", step, gen, gens[dev]+1)
			}
			shadow[dev], gens[dev] = want, gen
		case 2, 3, 4: // delta on the generation the store handed out
			delta := tp.set(name, ingestActions)
			want := sanitized(t, delta)
			_, gen, err := s.UploadDelta(k, dev, delta, gens[dev])
			if !known {
				if !errors.Is(err, ErrDeltaBase) {
					t.Fatalf("step %d: delta without a base: err %v, want ErrDeltaBase", step, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("step %d: delta: %v", step, err)
			}
			shadow[dev], gens[dev] = overlayDelta(base, want), gen
		case 5: // delta on a stale generation: refused, store untouched
			stale := gens[dev] + 1 + int64(tp.next()%3)
			if tp.next()%2 == 0 {
				stale = gens[dev] - 1
			}
			if _, _, err := s.UploadDelta(k, dev, tp.set(name, ingestActions), stale); !errors.Is(err, ErrDeltaBase) {
				t.Fatalf("step %d: stale delta: err %v, want ErrDeltaBase", step, err)
			}
		case 6:
			check(step)
		case 7: // delta whose layout differs from the base: refused, store untouched
			_, _, err := s.UploadDelta(k, dev, tp.set(name, ingestActions+1), gens[dev])
			if err == nil || known == errors.Is(err, ErrDeltaBase) {
				t.Fatalf("step %d: layout-changing delta (known=%v): err %v", step, known, err)
			}
		}
	}
	check(-1)
}

// randomIngestTape returns a program of n random bytes.
func randomIngestTape(rng *rand.Rand, n int) []byte {
	data := make([]byte, n)
	rng.Read(data)
	return data
}

// TestStoreIngestMatchesJoin runs the ingest oracle over random
// programs for every learner.
func TestStoreIngestMatchesJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 300; i++ {
		data := randomIngestTape(rng, 200+rng.Intn(600))
		t.Run(fmt.Sprint(i), func(t *testing.T) { runIngest(t, data) })
	}
}

// FuzzStoreIngest lets the fuzzer write ingest programs for the oracle.
func FuzzStoreIngest(f *testing.F) {
	f.Add([]byte{})
	// A merged device sends a visit count for a state it has no row
	// in, then that state's row without a count: the merge must weight
	// the row by the remembered count (7), and by 1 when a zero count
	// replaced it in between.
	start := []byte{
		4,                                  // learner.Names()[4]: watkins
		0, 1, 1, 3, 0, 8, 8, 8, 5, 2, 2, 2, // dev-1 full upload: state 3, row 1.0, 6 visits
		6, 0, // merge
		2, 1, 1, 4, 2, 6, 2, 2, 2, // dev-1 delta: 7 visits for state 4, no row
	}
	zero := []byte{2, 1, 1, 4, 2, 16, 2, 2, 2}              // dev-1 delta: 0 visits for state 4
	row := []byte{2, 1, 1, 4, 1, 16, 16, 16, 2, 2, 2, 6, 0} // dev-1 delta: state 4 row 2.0, count omitted; merge
	f.Add(slices.Concat(start, row))
	f.Add(slices.Concat(start, zero, row))
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 8; i++ {
		f.Add(randomIngestTape(rng, 300))
	}
	f.Fuzz(runIngest)
}
