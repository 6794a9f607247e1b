package cloud

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"strings"
	"sync"

	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
)

// Merger is a reusable incremental federated-merge accumulator. A
// from-scratch JoinDevices rebuilds a fresh accumulator map over every
// device's full table each round — O(fleet) per merge, the measured
// bottleneck of the 10k-device check-in cycle. Merger keeps the
// accumulator state ("arena") alive across rounds: each upload is
// diffed against the rows already in the arena, only the states whose
// contribution actually changed are marked dirty, and Merge recomputes
// just those states — in the same sorted-device order as the
// from-scratch path, term for term, so the float association order is
// identical and the output is byte-identical to JoinDevices over the
// same uploads (differential-pinned in the tests). Clean states alias
// the previous merged rows, which are immutable once published.
//
// The arena holds everything a device's table contributes to a merge —
// its rows, their effective weights, the visit counts it sent for
// states it has no row in, and its Steps/TrainedUS — so it can be the
// only copy of those tables a server keeps. Every upload enters it in
// sorted form through one walker: a full upload replaces the device's
// contribution, and a delta overlays it in O(states in the delta). A
// device the arena does not know joins it with its first full upload:
// it gets a column, and its states are dirtied. Devices never leave.
//
// The arena is device-major. Per role, every state any device has a
// row for gets a small integer id, its sid, which a sorted index (the
// states in ascending key order beside their sids) finds. Per device,
// a column packs the rows of just the states that device has, in sid
// order, with their weights and a sid → row index. An upload writes
// inside one device's column, which stays in cache, and Merge reads
// each column front to back. An upload's keys arrive in ascending
// order, so it finds their sids by walking the index forward; and each
// Merge renumbers the states that round brought in key order, so a
// column's rows follow key order too.
//
// The first upload fixes the arena's learner, role layout and action
// count; an upload of any other layout is refused, and so is a delta
// from a device the arena does not know. Merger is not safe for
// concurrent use; callers serialize (fleetd holds the shard lock).
type Merger struct {
	learnerName string
	actions     int
	roleNames   []string // nil until the first upload
	// ids holds each device's ID by slot, the place of its column in
	// every role: a device's slot is the order it joined in, found by
	// slots. order lists the slots in sorted-ID order — the float
	// association order of every weighted sum. The slots from
	// len(order) on joined since the last Merge, which sorts them in.
	ids   []string
	slots map[string]int32
	order []int32
	roles []*roleArena
	// merged is the last Merge's output, the empty set before the first.
	merged *learner.TableSet
	// sum and weight are Merge's accumulators, one row and one weight
	// per dirty state. seen marks the rows a full upload still has;
	// staged and stagedQ hold an upload's rows for states new to the
	// device until it repacks the column; fresh holds its states new to
	// the arena until it adds them to the index; joined holds the slots
	// Merge sorts in. All are reused across calls.
	sum     []float64
	weight  []int
	seen    []bool
	staged  []stagedRow
	stagedQ []float64
	fresh   []indexEntry
	joined  []int32
}

// indexEntry is a state and its sid, on their way into the index.
type indexEntry struct {
	key core.StateKey
	sid int32
}

// stagedRow is a row waiting for its column's repack: its state and
// its weight. Row i of Merger.stagedQ is staged row i's.
type stagedRow struct {
	sid int32
	w   int
}

// roleArena is one role's accumulator state across the fleet.
type roleArena struct {
	// index lists the arena's states in ascending key order, and
	// indexSid their sids; keys maps a sid back to its state. free lists
	// the sids of states that left the merge, for reuse: they are not
	// in the index.
	index    []core.StateKey
	indexSid []int32
	keys     []core.StateKey
	free     []int32
	// holders counts, per sid, the devices with a row for the state;
	// a state whose count falls to 0 leaves the merge.
	holders []int32
	// settled is the sid count at the last Merge. The sids from it on
	// went to new states in the order they arrived; Merge renumbers
	// them in key order (see settle).
	settled int
	// dirty marks the sids the next Merge must recompute, in a column
	// index's layout: a bitmap per block of 64 sids beside a count
	// that accumulate fills in. A state's dirty position is its rank.
	dirty []uint64
	// cols holds each device's rows, by slot.
	cols []column
	// inert holds, by slot, the positive visit counts the device sent for
	// states it has no row in (nil for most devices). They are
	// merge-inert until a later delta sends the row without a count,
	// which then carries the remembered count as its weight.
	inert []map[core.StateKey]int
	// steps/trained mirror each device's table metadata, by slot;
	// stepsSum is the maintained exact (integer) sum.
	steps    []int64
	trained  []int64
	stepsSum int64
}

// column is one device's contribution to a role. Its rows are packed
// in sid order: row k is q[k*actions:(k+1)*actions], with effective
// merge weight w[k] (>= 1). The index is a rank bitmap over sids: for
// each block of 64 sids, idx[2b] has bit i set when the device has a
// row for sid 64b+i, and idx[2b+1] counts the device's rows in the
// blocks before. A row's index is its block's count plus the set bits
// below it; the index costs 2 bits per union state.
type column struct {
	idx []uint64
	q   []float64
	w   []int32
	// wide holds, by sid, the weights too large for w; their w entry
	// is wideWeight. Nil unless a visit count passed math.MaxInt32.
	wide map[int32]int
}

const wideWeight = -1

func (c *column) rows() int { return len(c.w) }

// rowOf returns state sid's row index in the column, or -1.
func (c *column) rowOf(sid int32) int {
	b := int(sid>>6) * 2
	if b >= len(c.idx) {
		return -1
	}
	set, bit := c.idx[b], uint64(1)<<(sid&63)
	if set&bit == 0 {
		return -1
	}
	return int(c.idx[b+1]) + bits.OnesCount64(set&(bit-1))
}

// each calls fn for every row in order, with its sid.
func (c *column) each(fn func(k int, sid int32)) {
	k := 0
	for b := 0; b < len(c.idx); b += 2 {
		for set := c.idx[b]; set != 0; set &= set - 1 {
			fn(k, int32(b<<5+bits.TrailingZeros64(set)))
			k++
		}
	}
}

// weight returns row k's merge weight; sid is the row's state.
func (c *column) weight(k int, sid int32) int {
	if w := c.w[k]; w != wideWeight {
		return int(w)
	}
	return c.wide[sid]
}

// setWeight stores row k's merge weight.
func (c *column) setWeight(k int, sid int32, w int) {
	if c.w[k] == wideWeight {
		delete(c.wide, sid)
	}
	if w <= math.MaxInt32 {
		c.w[k] = int32(w)
		return
	}
	if c.wide == nil {
		c.wide = make(map[int32]int)
	}
	c.w[k] = wideWeight
	c.wide[sid] = w
}

// indexWords is the idx length that covers n sids.
func indexWords(n int) int { return 2 * ((n + 63) / 64) }

// countRows fills idx's per-block counts from its bitmaps and returns
// the total.
func countRows(idx []uint64) int {
	n := 0
	for b := 0; b < len(idx); b += 2 {
		idx[b+1] = uint64(n)
		n += bits.OnesCount64(idx[b])
	}
	return n
}

// NewMerger returns an empty arena.
func NewMerger() *Merger { return &Merger{} }

// Rebuild replaces the arena with one over the given uploads: a fresh
// arena, a full upload per device in sorted-ID order, and a Merge. It
// returns the merged set and the sorted device IDs. It converts each
// table set with core.SortTableSet. Outside tests, only the frozen
// benchmark's replay calls it (ROADMAP item 9).
func (m *Merger) Rebuild(uploads map[string]*learner.TableSet) (*learner.TableSet, []string, error) {
	if len(uploads) == 0 {
		return nil, nil, fmt.Errorf("cloud: nothing to join")
	}
	devices := slices.Sorted(maps.Keys(uploads))
	*m = Merger{}
	for _, d := range devices {
		set, err := core.SortTableSet(uploads[d])
		if err != nil {
			return nil, nil, fmt.Errorf("cloud: device %q: %w", d, err)
		}
		if !m.upload(d, set, true) {
			return nil, nil, fmt.Errorf("cloud: device %q: table set does not match the fleet's layout", d)
		}
	}
	return m.Merge(), devices, nil
}

// matchLayout reports whether set has the arena's learner, role
// layout and action count. The first set fixes them, and makes the
// empty set of that layout the previous Merge's output.
func (m *Merger) matchLayout(set *core.SortedSet) bool {
	if set == nil || len(set.Roles) == 0 {
		return false
	}
	if m.roleNames == nil {
		m.learnerName, m.actions = set.Learner, set.Actions
		m.merged = &learner.TableSet{Learner: set.Learner, Roles: make([]learner.RoleTable, len(set.Roles))}
		for i := range set.Roles {
			m.roleNames = append(m.roleNames, set.Roles[i].Role)
			m.roles = append(m.roles, &roleArena{})
			m.merged.Roles[i] = learner.RoleTable{Role: set.Roles[i].Role, Table: core.NewQTable(set.Actions)}
		}
		return true
	}
	if set.Learner != m.learnerName || set.Actions != m.actions || len(set.Roles) != len(m.roleNames) {
		return false
	}
	for i := range set.Roles {
		if set.Roles[i].Role != m.roleNames[i] {
			return false
		}
	}
	return true
}

// join gives a device the arena does not know the next slot and an
// empty column in every role.
func (m *Merger) join(device string) int32 {
	slot := int32(len(m.ids))
	m.ids = append(m.ids, device)
	if m.slots == nil {
		m.slots = make(map[string]int32)
	}
	m.slots[device] = slot
	for _, ra := range m.roles {
		ra.cols = append(ra.cols, column{})
		ra.inert = append(ra.inert, nil)
		ra.steps = append(ra.steps, 0)
		ra.trained = append(ra.trained, 0)
	}
	return slot
}

// sortJoined puts the devices that joined since the last Merge into
// sorted-ID order: it sorts them, then merges them into order in one
// pass from the back, so a round in which k devices joined costs
// O(devices + k log k).
func (m *Merger) sortJoined() {
	n := len(m.order)
	if n == len(m.ids) {
		return
	}
	joined := m.joined[:0]
	for slot := n; slot < len(m.ids); slot++ {
		joined = append(joined, int32(slot))
	}
	byID := func(x, y int32) int { return strings.Compare(m.ids[x], m.ids[y]) }
	slices.SortFunc(joined, byID)
	m.order = slices.Grow(m.order, len(joined))[:len(m.ids)]
	i := n - 1
	for w := len(m.order) - 1; len(joined) > 0; w-- {
		if j := joined[len(joined)-1]; i < 0 || byID(m.order[i], j) < 0 {
			m.order[w] = j
			joined = joined[:len(joined)-1]
		} else {
			m.order[w] = m.order[i]
			i--
		}
	}
	m.joined = joined
}

// setMeta records a device's Steps/TrainedUS, keeping the exact sum.
func (ra *roleArena) setMeta(slot int32, steps, trained int64) {
	ra.stepsSum += steps - ra.steps[slot]
	ra.steps[slot] = steps
	ra.trained[slot] = trained
}

// lookup returns state s's sid by binary search of the index, or
// false when the arena has no sid for s.
func (ra *roleArena) lookup(s core.StateKey) (int32, bool) {
	i, ok := slices.BinarySearch(ra.index, s)
	if !ok {
		return 0, false
	}
	return ra.indexSid[i], true
}

// seek returns the first index position at or after from whose key is
// at least s. It gallops — probing from+1, from+2, from+4, … before a
// binary search of the last step — so a walk over ascending keys pays
// for the distance it moves, not for the index's length.
func (ra *roleArena) seek(from int, s core.StateKey) int {
	idx := ra.index
	if from >= len(idx) || idx[from] >= s {
		return from
	}
	lo, step := from, 1 // idx[lo] < s
	for lo+step < len(idx) && idx[lo+step] < s {
		lo += step
		step *= 2
	}
	i, _ := slices.BinarySearch(idx[lo+1:min(lo+step, len(idx))], s)
	return lo + 1 + i
}

// newSid gives state s, which the arena has no sid for, a freed sid or
// else the next one, and queues s for the index. room bounds the
// states the upload may still bring, s included, so the slices that
// grow with the sids grow at most once per upload.
func (m *Merger) newSid(ra *roleArena, s core.StateKey, room int) int32 {
	var sid int32
	if n := len(ra.free); n > 0 {
		sid = ra.free[n-1]
		ra.free = ra.free[:n-1]
		ra.keys[sid] = s
	} else {
		sid = int32(len(ra.keys))
		ra.keys = append(slices.Grow(ra.keys, room), s)
		ra.holders = append(slices.Grow(ra.holders, room), 0)
		if w := indexWords(len(ra.keys)); w > len(ra.dirty) {
			grow := indexWords(len(ra.keys)+room-1) - len(ra.dirty)
			ra.dirty = append(slices.Grow(ra.dirty, grow), 0, 0)
		}
	}
	m.fresh = append(slices.Grow(m.fresh, room), indexEntry{key: s, sid: sid})
	return sid
}

// insertFresh adds the states queued by newSid, which must be in
// ascending key order, to the index: one merge pass from the back, so
// an upload pays for its new states once, not once per state.
func (m *Merger) insertFresh(ra *roleArena) {
	fresh := m.fresh
	if len(fresh) == 0 {
		return
	}
	i, n := len(ra.index)-1, len(ra.index)+len(fresh)
	ra.index = slices.Grow(ra.index, len(fresh))[:n]
	ra.indexSid = slices.Grow(ra.indexSid, len(fresh))[:n]
	for w := n - 1; len(fresh) > 0; w-- {
		if f := fresh[len(fresh)-1]; i < 0 || ra.index[i] < f.key {
			ra.index[w], ra.indexSid[w] = f.key, f.sid
			fresh = fresh[:len(fresh)-1]
		} else {
			ra.index[w], ra.indexSid[w] = ra.index[i], ra.indexSid[i]
			i--
		}
	}
	m.fresh = m.fresh[:0]
}

// dropFreed removes the states that Merge freed, which no device
// holds, from the index in one pass.
func (ra *roleArena) dropFreed() {
	n := 0
	for i, sid := range ra.indexSid {
		if ra.holders[sid] > 0 {
			ra.index[n], ra.indexSid[n] = ra.index[i], sid
			n++
		}
	}
	ra.index, ra.indexSid = ra.index[:n], ra.indexSid[:n]
}

// markDirty queues state sid for the next Merge.
func (ra *roleArena) markDirty(sid int32) {
	ra.dirty[sid>>6*2] |= 1 << (sid & 63)
}

// stageRow queues a row for state sid, which the device has none for,
// until the upload's repack, and returns the row's place in stagedQ
// for the caller to fill. room bounds the rows the upload may still
// stage, this one included, so the buffers grow at most once.
func (m *Merger) stageRow(ra *roleArena, sid int32, w, room int) []float64 {
	a := m.actions
	m.staged = append(slices.Grow(m.staged, room), stagedRow{sid: sid, w: w})
	n := len(m.stagedQ)
	m.stagedQ = slices.Grow(m.stagedQ, room*a)[:n+a]
	ra.holders[sid]++
	ra.markDirty(sid)
	return m.stagedQ[n : n+a]
}

// repack rebuilds column c into buffers of its new size: its rows,
// less those among the first len(seen) whose seen flag is false (the
// states a full upload no longer has; seen is nil for a delta), and
// the staged rows. It sets the new column's index first, so every row
// goes straight to its rank: the staged rows need no sort, however
// their sids interleave with the column's.
func (m *Merger) repack(ra *roleArena, c *column, seen []bool) {
	a := m.actions
	old := *c
	c.idx = make([]uint64, max(len(old.idx), indexWords(len(ra.keys))))
	copy(c.idx, old.idx)
	old.each(func(k int, sid int32) {
		if k < len(seen) && !seen[k] {
			c.idx[sid>>6*2] &^= 1 << (sid & 63)
			delete(c.wide, sid)
			ra.holders[sid]--
			ra.markDirty(sid)
		}
	})
	for _, st := range m.staged {
		c.idx[st.sid>>6*2] |= 1 << (st.sid & 63)
	}
	n := countRows(c.idx)
	c.q, c.w = make([]float64, n*a), make([]int32, n)
	old.each(func(k int, sid int32) {
		if j := c.rowOf(sid); j >= 0 {
			copy(c.q[j*a:(j+1)*a], old.q[k*a:(k+1)*a])
			c.w[j] = old.w[k] // a wide weight stays in c.wide, by sid
		}
	})
	for i, st := range m.staged {
		j := c.rowOf(st.sid)
		copy(c.q[j*a:(j+1)*a], m.stagedQ[i*a:(i+1)*a])
		c.setWeight(j, st.sid, st.w)
	}
	m.staged, m.stagedQ = m.staged[:0], m.stagedQ[:0]
}

// Upload is a full upload of a table set: it converts next with
// core.SortTableSet and hands it to the one upload walker. Outside
// tests, only the frozen benchmark's replay calls it (ROADMAP item 9).
func (m *Merger) Upload(device string, next *learner.TableSet) bool {
	set, err := core.SortTableSet(next)
	return err == nil && m.upload(device, set, true)
}

// UploadFull replaces a device's contribution with a full upload in
// sorted form, mergeTables' rule: each row weighs its visit count,
// floored at 1 (1 for a row without a count); the device's rows for
// states the set lacks are dropped; its visit counts without a row
// replace the ones it sent before; Steps and TrainedUS are absolute. A
// device the arena does not know joins it. It returns false — arena
// untouched — for a set whose layout differs from the arena's.
func (m *Merger) UploadFull(device string, set *core.SortedSet) bool {
	return m.upload(device, set, true)
}

// UploadDelta overlays a delta upload, in sorted form, on the device's
// contribution, touching only the delta's states. The rule is a full
// upload of the device's previous table with the delta laid over it:
//
//   - a state's row is replaced by the delta's row;
//   - its weight comes from the delta's visit count when the delta
//     sends one, and otherwise carries over: the weight the device's
//     row already had, else a visit count an earlier upload sent
//     without a row, else 1;
//   - a visit count without a row re-weights the device's existing row,
//     or is remembered while the device has no row for that state;
//   - Steps and TrainedUS are absolute.
//
// A delta cannot drop states. It returns false — arena untouched — for
// a device the arena doesn't know or a set whose layout differs from
// the arena's.
func (m *Merger) UploadDelta(device string, delta *core.SortedSet) bool {
	return m.upload(device, delta, false)
}

// upload is the one upload walker, for full uploads and deltas alike
// (see UploadFull and UploadDelta for their rules). Per role, it joins
// rows and visit counts in key order in one pass, which walks a cursor
// forward through the index to find each row's sid, and reads the row
// straight into the device's column. The column is rebuilt only when
// the upload brings states new to the device or a full upload drops
// some, and the index grows once when it brings states new to the
// arena.
func (m *Merger) upload(device string, set *core.SortedSet, full bool) bool {
	slot, known := m.slots[device]
	if !known && !full || !m.matchLayout(set) {
		return false
	}
	if !known {
		slot = m.join(device)
	}
	a := m.actions
	for r, ra := range m.roles {
		t := &set.Roles[r]
		c := &ra.cols[slot]
		ra.setMeta(slot, t.Steps, t.TrainedUS)
		var seen []bool
		if full {
			seen = append(m.seen[:0], make([]bool, c.rows())...)
			clear(ra.inert[slot])
		}
		kept := 0
		v, p := 0, 0 // next visit count, index cursor
		for i, s := range t.Keys {
			for ; v < len(t.VisitKeys) && t.VisitKeys[v] < s; v++ {
				ra.rowlessVisit(slot, t.VisitKeys[v], t.Visits[v], full)
			}
			var sid int32
			if p = ra.seek(p, s); p < len(ra.index) && ra.index[p] == s {
				sid = ra.indexSid[p]
				p++
			} else {
				sid = m.newSid(ra, s, len(t.Keys)-i)
			}
			k := c.rowOf(sid)
			w := 1
			switch {
			case v < len(t.VisitKeys) && t.VisitKeys[v] == s:
				w = t.Visits[v]
				v++
			case full:
			case k >= 0:
				w = c.weight(k, sid)
			default:
				w = ra.inert[slot][s]
			}
			w = max(w, 1)
			if k >= 0 {
				if full {
					seen[k] = true
					kept++
				}
				if t.RowInto(i, c.q[k*a:(k+1)*a]) || c.weight(k, sid) != w {
					ra.markDirty(sid)
				}
				c.setWeight(k, sid, w)
			} else {
				t.RowInto(i, m.stageRow(ra, sid, w, len(t.Keys)-i))
			}
			if !full && len(ra.inert[slot]) > 0 {
				delete(ra.inert[slot], s)
			}
		}
		for ; v < len(t.VisitKeys); v++ {
			ra.rowlessVisit(slot, t.VisitKeys[v], t.Visits[v], full)
		}
		if kept < len(seen) || len(m.staged) > 0 {
			m.repack(ra, c, seen)
		}
		if full {
			m.seen = seen
		}
		m.insertFresh(ra)
	}
	return true
}

// rowlessVisit applies an upload's visit count v for state s, which
// the upload sends no row for. In a delta it re-weights the device's
// existing row; otherwise, and in a full upload always, it is
// remembered while positive. Staged rows are never s's, so it may run
// before their repack.
func (ra *roleArena) rowlessVisit(slot int32, s core.StateKey, v int, full bool) {
	c := &ra.cols[slot]
	if !full {
		if sid, ok := ra.lookup(s); ok {
			if k := c.rowOf(sid); k >= 0 {
				if w := max(v, 1); w != c.weight(k, sid) {
					c.setWeight(k, sid, w)
					ra.markDirty(sid)
				}
				return
			}
		}
	}
	if v <= 0 {
		delete(ra.inert[slot], s)
		return
	}
	if ra.inert[slot] == nil {
		ra.inert[slot] = make(map[core.StateKey]int)
	}
	ra.inert[slot][s] = v
}

// Merge produces the merged set for the arena's current uploads,
// recomputing only dirty states and aliasing every clean state's row
// from the previous output (the empty set before the first round), so
// it is the first round's merge too. The returned set is freshly
// allocated (rows shared with prior outputs are immutable); Merge is
// byte-identical to JoinDevices over the same uploads. It returns nil
// before the first upload.
func (m *Merger) Merge() *learner.TableSet {
	if m.merged == nil {
		return nil
	}
	m.sortJoined()
	a := m.actions
	out := &learner.TableSet{Learner: m.learnerName, Roles: make([]learner.RoleTable, len(m.roleNames))}
	for r, roleName := range m.roleNames {
		ra := m.roles[r]
		prev := m.merged.Roles[r].Table
		nt := &core.QTable{
			Actions: a,
			Q:       maps.Clone(prev.Q),
			Visits:  maps.Clone(prev.Visits),
			Steps:   ra.stepsSum,
		}
		for _, v := range ra.trained {
			nt.TrainedUS = max(nt.TrainedUS, v)
		}
		m.settle(ra)
		freed := len(ra.free)
		m.accumulate(ra)
		o := 0
		for b := 0; b < len(ra.dirty); b += 2 {
			for set := ra.dirty[b]; set != 0; set &= set - 1 {
				sid := int32(b<<5 + bits.TrailingZeros64(set))
				s := ra.keys[sid]
				if ra.holders[sid] == 0 { // every device dropped it
					delete(nt.Q, s)
					delete(nt.Visits, s)
					ra.free = append(ra.free, sid)
				} else {
					row := make([]float64, a)
					sum, weight := m.sum[o*a:(o+1)*a], m.weight[o]
					fw := float64(weight)
					for j := range row {
						row[j] = sum[j] / fw
					}
					nt.Q[s] = row
					nt.Visits[s] = weight
				}
				o++
			}
			ra.dirty[b] = 0
		}
		if len(ra.free) > freed {
			ra.dropFreed()
		}
		out.Roles[r] = learner.RoleTable{Role: roleName, Table: nt}
	}
	m.merged = out
	return out
}

// settle gives the states that got sids since the last Merge those
// sids in key order. An upload numbers its new states in key order, but
// the states a round's uploads bring interleave, and a column keeps its
// rows in sid order; settled, every column holds its rows in key order
// wherever the states arrived in one round, so a later upload, whose
// keys ascend, writes its column front to back. The renumbered states
// are dirty and held only by columns uploaded this round, which are
// repacked with their rows under the new sids; the rest of the arena
// is untouched.
func (m *Merger) settle(ra *roleArena) {
	lo, n := ra.settled, len(ra.keys)
	ra.settled = n
	fresh := ra.keys[lo:n]
	if slices.IsSorted(fresh) {
		return
	}
	// perm[i] is the new sid of sid lo+i: lo plus its key's rank.
	byKey := make([]int32, len(fresh))
	for i := range byKey {
		byKey[i] = int32(i)
	}
	slices.SortFunc(byKey, func(x, y int32) int { return cmp.Compare(fresh[x], fresh[y]) })
	perm := make([]int32, len(fresh))
	holders := slices.Clone(ra.holders[lo:n])
	for r, i := range byKey {
		perm[i] = int32(lo + r)
		ra.holders[lo+r] = holders[i]
	}
	slices.Sort(fresh)
	for i, sid := range ra.indexSid {
		if int(sid) >= lo {
			ra.indexSid[i] = perm[int(sid)-lo]
		}
	}
	// A column's rows for sids from lo on are its last ones: they move
	// to staged under their new sids, and repack puts them back.
	a, b0 := m.actions, lo>>6*2
	below := uint64(1)<<(lo&63) - 1 // block b0's sids under lo
	for i := range ra.cols {
		c := &ra.cols[i]
		if b0 >= len(c.idx) {
			continue
		}
		k0 := int(c.idx[b0+1]) + bits.OnesCount64(c.idx[b0]&below)
		k, mask := k0, ^below
		for b := b0; b < len(c.idx); b, mask = b+2, ^uint64(0) {
			for set := c.idx[b] & mask; set != 0; set &= set - 1 {
				sid := int32(b<<5 + bits.TrailingZeros64(set))
				m.staged = append(m.staged, stagedRow{sid: perm[int(sid)-lo], w: c.weight(k, sid)})
				m.stagedQ = append(m.stagedQ, c.q[k*a:(k+1)*a]...)
				delete(c.wide, sid)
				k++
			}
			c.idx[b] &^= mask
		}
		if k > k0 {
			c.q, c.w = c.q[:k0*a], c.w[:k0]
			m.repack(ra, c, nil)
		}
	}
}

// accumulate is mergeTables' inner loop over the dirty states: walking
// the devices in sorted order, it adds each weight-scaled row of a
// dirty state into that state's accumulator (m.sum, by the state's
// dirty rank) and the weight into m.weight. Every state's terms are
// thus summed in device order, as mergeTables sums them.
//
// The index blocks split into GOMAXPROCS contiguous ranges holding
// about equal numbers of dirty states, and one goroutine accumulates
// each range that is not empty. A range owns its states' accumulators,
// and walks the devices in the same order, so the sums are the same
// bits at any goroutine count.
func (m *Merger) accumulate(ra *roleArena) {
	a := m.actions
	dirty := ra.dirty
	n := countRows(dirty)
	m.sum = slices.Grow(m.sum[:0], n*a)[:n*a]
	m.weight = slices.Grow(m.weight[:0], n)[:n]
	clear(m.sum)
	clear(m.weight)
	parts := min(runtime.GOMAXPROCS(0), len(dirty)/2)
	// Range p ends before the first block whose first dirty rank
	// (countRows' prefix in dirty[b+1]) reaches p*n/parts.
	var wg sync.WaitGroup
	lo := 0
	for p := 1; p < parts; p++ {
		hi := lo
		for hi < len(dirty) && int(dirty[hi+1]) < p*n/parts {
			hi += 2
		}
		if hi == lo {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			m.accumulateBlocks(ra, lo, hi)
		}(lo, hi)
		lo = hi
	}
	m.accumulateBlocks(ra, lo, len(dirty))
	wg.Wait()
}

// accumulateBlocks is accumulate over index blocks [lo, hi), which
// are even dirty-word offsets.
//
// A column and the dirty set share one index layout, so each block of
// 64 sids intersects them with one AND, and a device's rows there and
// their accumulators are found by rank. Where a device has exactly the
// block's dirty states, both are one contiguous run. Devices go in
// pairs, block by block — the first device's terms of a block before
// the second's — and where both have exactly the block's dirty states
// one pass adds both, loading and storing each accumulator once.
func (m *Merger) accumulateBlocks(ra *roleArena, lo, hi int) {
	a := m.actions
	dirty := ra.dirty
	order := m.order
	for i := 0; i < len(order); i += 2 {
		c := &ra.cols[order[i]]
		if i+1 == len(order) {
			for b := lo; b < hi; b += 2 {
				m.addBlock(c, dirty, b)
			}
			break
		}
		d := &ra.cols[order[i+1]]
		plain := len(c.wide) == 0 && len(d.wide) == 0
		for b := lo; b < hi; b += 2 {
			want := dirty[b]
			if want == 0 {
				continue
			}
			if plain && c.block(b) == want && d.block(b) == want {
				o, n := int(dirty[b+1]), bits.OnesCount64(want)
				kc, kd := int(c.idx[b+1]), int(d.idx[b+1])
				addRun2(m.sum[o*a:(o+n)*a], m.weight[o:o+n],
					c.q[kc*a:(kc+n)*a], c.w[kc:kc+n], d.q[kd*a:(kd+n)*a], d.w[kd:kd+n])
				continue
			}
			m.addBlock(c, dirty, b)
			m.addBlock(d, dirty, b)
		}
	}
}

// block returns the column's bitmap for index block b (0 past its end).
func (c *column) block(b int) uint64 {
	if b < len(c.idx) {
		return c.idx[b]
	}
	return 0
}

// addBlock adds column c's rows for the dirty states of index block b
// into their accumulators.
func (m *Merger) addBlock(c *column, dirty []uint64, b int) {
	a := m.actions
	has, want := c.block(b), dirty[b]
	both := has & want
	if both == 0 {
		return
	}
	k, o := int(c.idx[b+1]), int(dirty[b+1])
	if has == want && len(c.wide) == 0 {
		n := bits.OnesCount64(has)
		addRun(m.sum[o*a:(o+n)*a], m.weight[o:o+n], c.q[k*a:(k+n)*a], c.w[k:k+n])
		return
	}
	for set := both; set != 0; set &= set - 1 {
		below := set&-set - 1
		k, o := k+bits.OnesCount64(has&below), o+bits.OnesCount64(want&below)
		w := c.weight(k, int32(b<<5+bits.TrailingZeros64(set)))
		fw := float64(w)
		sum := m.sum[o*a : (o+1)*a]
		for j, v := range c.q[k*a : (k+1)*a] {
			sum[j] += v * fw
		}
		m.weight[o] += w
	}
}

// addRun adds each row of q, scaled by its weight in w, into the same
// row of acc, and each weight into wacc. No weight is wideWeight. The
// run helpers stay out of line so their loops get registers of their
// own: inlined into accumulate, the loop spilled its counter on every
// term.
//
//go:noinline
func addRun(acc []float64, wacc []int, q []float64, w []int32) {
	a := len(q) / len(w)
	acc = acc[:len(q)]
	j := 0
	for r, wr := range w {
		fw := float64(wr)
		for end := j + a; j < end; j++ {
			acc[j] += q[j] * fw
		}
		wacc[r] += int(wr)
	}
}

// addRun2 is addRun over two devices' runs of the same states, the
// first device's term before the second's, as two addRun calls in
// turn would add them.
//
//go:noinline
func addRun2(acc []float64, wacc []int, q []float64, w []int32, p []float64, v []int32) {
	a := len(q) / len(w)
	acc, p, v = acc[:len(q)], p[:len(q)], v[:len(w)]
	j := 0
	for r, wr := range w {
		fq, fp := float64(wr), float64(v[r])
		for end := j + a; j < end; j++ {
			s := acc[j] + q[j]*fq
			acc[j] = s + p[j]*fp
		}
		wacc[r] += int(wr) + int(v[r])
	}
}
