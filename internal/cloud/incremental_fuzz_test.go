package cloud

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
)

// The merger oracle drives a byte string through a Merger as a program
// of full uploads (new devices join the arena through them), deltas,
// merges and Rebuilds, and keeps a shadow of every device's table
// composed the reference way: a full upload replaces the shadow, a
// delta is laid over it with overlayDelta. After every merge the
// Merger's output, and a Rebuild over the shadows, must be
// byte-identical (NXTB) to JoinDevices over the shadows. Values are
// not sanitized, so NaNs, infinities, signed zeros and visit counts
// past 32 bits reach the arena.

const (
	mergerActions = 3
	// mergerStates spans three 64-sid index blocks, so columns hold
	// partial, full and empty blocks.
	mergerStates  = 150
	mergerDevices = 6
)

// mergerTape reads operations and values from a byte string; past its
// end every read is 0, so any input is a finite, valid program.
type mergerTape struct {
	data []byte
	off  int
}

func (tp *mergerTape) done() bool { return tp.off >= len(tp.data) }

func (tp *mergerTape) next() int {
	if tp.done() {
		return 0
	}
	b := tp.data[tp.off]
	tp.off++
	return int(b)
}

// wideVisits is a visit count past math.MaxInt32 (it wraps where int
// is 32 bits, which the shadow sees the same way).
var wideVisits int64 = math.MaxInt32 + 9

func (tp *mergerTape) value() float64 {
	switch b := tp.next(); b {
	case 255:
		return math.NaN()
	case 254:
		return math.Inf(1)
	case 253:
		return math.Inf(-1)
	case 252:
		return math.Copysign(0, -1)
	default:
		return float64(int8(b)) / 8
	}
}

func (tp *mergerTape) visits() int {
	b := tp.next()
	switch b % 16 {
	case 0:
		return 0
	case 1:
		return -b
	case 2:
		return int(wideVisits) + b
	default:
		return b%7 + 1
	}
}

// table builds one role table: a run of states from a random start
// (so devices share and straddle index blocks), rows with and without
// a visit count, and visit counts without a row.
func (tp *mergerTape) table(actions int) *core.QTable {
	t := core.NewQTable(actions)
	s := tp.next() % mergerStates
	for n := tp.next() % 40; n > 0; n-- {
		s = (s + 1 + tp.next()%4) % mergerStates
		key := core.StateKey(s)
		kind := tp.next() % 4
		if kind != 2 {
			row := make([]float64, actions)
			for a := range row {
				row[a] = tp.value()
			}
			t.Q[key] = row
		}
		if kind != 1 {
			t.Visits[key] = tp.visits()
		}
	}
	t.Steps = int64(tp.next()) * 100
	t.TrainedUS = int64(tp.next()) * 1000
	return t
}

func (tp *mergerTape) set(name string, actions int) *learner.TableSet {
	set := learner.Must(name, actions).Snapshot()
	for i := range set.Roles {
		set.Roles[i].Table = tp.table(actions)
	}
	return set
}

func nxtb(t *testing.T, set *learner.TableSet) []byte {
	t.Helper()
	b, err := core.MarshalTableSetBinary("app", set, true)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mergerOracle is a Merger beside the shadow tables it must agree with.
type mergerOracle struct {
	t      *testing.T
	m      *Merger
	shadow map[string]*learner.TableSet
}

func newMergerOracle(t *testing.T) *mergerOracle {
	return &mergerOracle{t: t, m: NewMerger(), shadow: make(map[string]*learner.TableSet)}
}

// upload sends a full upload, which the arena must take from every
// device: a device it does not know joins it.
func (o *mergerOracle) upload(dev string, set *learner.TableSet) {
	o.t.Helper()
	if !o.m.Upload(dev, set) {
		o.t.Fatalf("full upload from %s refused", dev)
	}
	o.shadow[dev] = set
}

// delta sends a delta from a device the shadow has.
func (o *mergerOracle) delta(dev string, delta *learner.TableSet) {
	o.t.Helper()
	if !o.m.UploadDelta(dev, sorted(o.t, delta)) {
		o.t.Fatalf("same-layout delta from %s refused", dev)
	}
	o.shadow[dev] = overlayDelta(o.shadow[dev], delta)
}

// refuse checks that a set of another layout is refused from every
// device, leaving the arena as it was.
func (o *mergerOracle) refuse(dev string, set *learner.TableSet) {
	o.t.Helper()
	if len(o.shadow) == 0 {
		return // no upload has fixed the arena's layout yet
	}
	if o.m.Upload(dev, set) || o.m.UploadDelta(dev, sorted(o.t, set)) {
		o.t.Fatalf("set with %d actions accepted from %s", set.Primary().Actions, dev)
	}
}

// merge runs a merge round and checks it against the shadow.
func (o *mergerOracle) merge(step string) {
	o.t.Helper()
	if len(o.shadow) == 0 {
		return
	}
	want, _, err := JoinDevices(o.shadow)
	if err != nil {
		o.t.Fatal(err)
	}
	o.check(step+": merge", o.m.Merge(), want)
}

// roundTrip replaces the arena with a Rebuild over the shadows and
// checks its output.
func (o *mergerOracle) roundTrip(step string) {
	o.t.Helper()
	if len(o.shadow) == 0 {
		return
	}
	want, _, err := JoinDevices(o.shadow)
	if err != nil {
		o.t.Fatal(err)
	}
	m := NewMerger()
	rebuilt, _, err := m.Rebuild(o.shadow)
	if err != nil {
		o.t.Fatal(err)
	}
	o.check(step+": Rebuild", rebuilt, want)
	o.m = m
}

// checkIndex checks every role's state index (see indexFault).
func (o *mergerOracle) checkIndex(step string) {
	o.t.Helper()
	for r, ra := range o.m.roles {
		if fault := ra.indexFault(); fault != "" {
			o.t.Fatalf("%s: role %q index: %s", step, o.m.roleNames[r], fault)
		}
	}
}

// indexFault describes the first way the state index breaks its
// invariants, or returns "": keys strictly ascending, each entry's sid
// mapping back to its key, one entry per sid in use, and no freed sid.
func (ra *roleArena) indexFault() string {
	if len(ra.index) != len(ra.indexSid) {
		return fmt.Sprintf("%d keys beside %d sids", len(ra.index), len(ra.indexSid))
	}
	if live := len(ra.keys) - len(ra.free); len(ra.index) != live {
		return fmt.Sprintf("%d entries for %d live states", len(ra.index), live)
	}
	freed := make([]bool, len(ra.keys))
	for _, sid := range ra.free {
		freed[sid] = true
	}
	seen := make([]bool, len(ra.keys))
	for i, s := range ra.index {
		sid := ra.indexSid[i]
		switch {
		case i > 0 && s <= ra.index[i-1]:
			return fmt.Sprintf("key %d at %d follows %d", s, i, ra.index[i-1])
		case sid < 0 || int(sid) >= len(ra.keys):
			return fmt.Sprintf("key %d has sid %d of %d", s, sid, len(ra.keys))
		case freed[sid]:
			return fmt.Sprintf("key %d has freed sid %d", s, sid)
		case seen[sid]:
			return fmt.Sprintf("sid %d is in the index twice", sid)
		case ra.keys[sid] != s:
			return fmt.Sprintf("key %d has sid %d, which maps back to %d", s, sid, ra.keys[sid])
		}
		seen[sid] = true
	}
	return ""
}

func (o *mergerOracle) check(what string, got, want *learner.TableSet) {
	o.t.Helper()
	if !bytes.Equal(nxtb(o.t, got), nxtb(o.t, want)) {
		o.t.Fatalf("%s differs from JoinDevices over the shadow tables", what)
	}
}

// runMerger runs one program against a fresh Merger and the oracle.
func runMerger(t *testing.T, data []byte) {
	t.Helper()
	tp := &mergerTape{data: data}
	names := learner.Names()
	name := names[tp.next()%len(names)]
	o := newMergerOracle(t)
	for step := 0; !tp.done(); step++ {
		op := tp.next() % 8
		dev := fmt.Sprintf("dev-%d", tp.next()%mergerDevices)
		_, known := o.shadow[dev]
		switch op {
		case 0, 1:
			o.upload(dev, tp.set(name, mergerActions))
		case 2, 3, 4:
			if known {
				o.delta(dev, tp.set(name, mergerActions))
			}
		case 5:
			o.merge(fmt.Sprintf("step %d", step))
		case 6:
			o.roundTrip(fmt.Sprintf("step %d", step))
		case 7:
			o.refuse(dev, tp.set(name, mergerActions+1))
		}
		o.checkIndex(fmt.Sprintf("step %d", step))
	}
	o.merge("end")
}

// FuzzMerger lets the fuzzer write programs for the merger oracle.
func FuzzMerger(f *testing.F) {
	f.Add([]byte{})
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 8; i++ {
		f.Add(randomMergerTape(rng, 400))
	}
	f.Fuzz(runMerger)
}

func randomMergerTape(rng *rand.Rand, n int) []byte {
	data := make([]byte, n)
	rng.Read(data)
	return data
}

// TestMergerProgramsMatchJoin runs the merger oracle over random
// programs.
func TestMergerProgramsMatchJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 200; i++ {
		data := randomMergerTape(rng, 200+rng.Intn(800))
		t.Run(fmt.Sprint(i), func(t *testing.T) { runMerger(t, data) })
	}
}
