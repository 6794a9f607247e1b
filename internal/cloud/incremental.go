package cloud

import (
	"maps"
	"math"
	"math/bits"
	"slices"

	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
)

// Merger is a reusable incremental federated-merge accumulator. A
// from-scratch JoinDevices rebuilds a fresh accumulator map over every
// device's full table each round — O(fleet) per merge, the measured
// bottleneck of the 10k-device check-in cycle. Merger keeps the
// accumulator state ("arena") alive across rounds: each re-upload is
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
// only copy of those tables a server keeps: UploadDelta overlays a
// delta in O(states in the delta), and Tables hands the columns back
// for a rebuild.
//
// The arena is device-major. Per role, every state any device has a
// row for gets a small integer id, its sid. Per device, a column packs
// the rows of just the states that device has, in sid order, with
// their weights and a sid → row index. An upload writes inside one
// device's column, which stays in cache, and Merge reads each column
// front to back.
//
// The arena is keyed by the device set and table layout captured at
// Rebuild. Structural changes — a new device, a learner or role-layout
// change, a different action count — invalidate it: Upload and
// UploadDelta return false and the caller runs Rebuild (which is
// JoinDevices plus arena construction). Merger is not safe for
// concurrent use; callers serialize (fleetd holds the shard lock).
type Merger struct {
	learnerName string
	actions     int
	roleNames   []string
	// devices is the sorted device-ID order — the float association
	// order of every weighted sum, fixed at Rebuild. Devices are found
	// by binary search, so Rebuild allocates nothing per device.
	devices []string
	roles   []*roleArena
	merged  *learner.TableSet
	// sum and weight are Merge's accumulators, one row and one weight
	// per dirty state. seen marks the rows a full upload still has;
	// staged and stagedQ hold an upload's rows for states new to the
	// device until it repacks the column. All are reused across calls.
	sum     []float64
	weight  []int
	seen    []bool
	staged  []stagedRow
	stagedQ []float64
}

// stagedRow is a row waiting for its column's repack: its state, its
// weight, and its place in Merger.stagedQ.
type stagedRow struct {
	sid, at int32
	w       int
}

// roleArena is one role's accumulator state across the fleet.
type roleArena struct {
	// sids maps a state to its sid and keys maps back; free lists the
	// sids of states that left the merge, for reuse.
	sids map[core.StateKey]int32
	keys []core.StateKey
	free []int32
	// holders counts, per sid, the devices with a row for the state;
	// a state whose count falls to 0 leaves the merge.
	holders []int32
	// dirty marks the sids the next Merge must recompute, in a column
	// index's layout: a bitmap per block of 64 sids beside a count
	// that accumulate fills in. A state's dirty position is its rank.
	dirty []uint64
	// cols holds each device's rows, parallel to Merger.devices.
	cols []column
	// inert holds, per device, the positive visit counts it sent for
	// states it has no row in (nil for most devices). They are
	// merge-inert until a later delta sends the row without a count,
	// which then carries the remembered count as its weight.
	inert []map[core.StateKey]int
	// steps/trained mirror each device's table metadata; stepsSum is
	// the maintained exact (integer) sum.
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

// NewMerger returns an empty arena; Rebuild must run before Merge.
func NewMerger() *Merger { return &Merger{} }

// Rebuild recomputes the merge from scratch via JoinDevices — the
// pinned reference path, so its output IS the from-scratch result —
// and rebuilds the arena over the given uploads. Rows are copied into
// the arena; neither the map nor its tables are retained. Each role's
// columns are carved out of three shared slabs, so Rebuild's
// allocation count depends on the states, not on the number of
// devices (devices with row-less visit counts aside).
func (m *Merger) Rebuild(uploads map[string]*learner.TableSet) (*learner.TableSet, []string, error) {
	merged, devices, err := JoinDevices(uploads)
	if err != nil {
		return nil, nil, err
	}
	first := uploads[devices[0]]
	m.learnerName = learner.Normalize(first.Learner)
	m.actions = first.Primary().Actions
	m.roleNames = make([]string, len(first.Roles))
	for i, r := range first.Roles {
		m.roleNames[i] = r.Role
	}
	m.devices = devices
	m.roles = make([]*roleArena, len(m.roleNames))
	a := m.actions
	for r := range m.roleNames {
		union := merged.Roles[r].Table.Q
		ra := &roleArena{
			sids:    make(map[core.StateKey]int32, len(union)),
			keys:    make([]core.StateKey, 0, len(union)),
			holders: make([]int32, len(union)),
			dirty:   make([]uint64, indexWords(len(union))),
			cols:    make([]column, len(devices)),
			inert:   make([]map[core.StateKey]int, len(devices)),
			steps:   make([]int64, len(devices)),
			trained: make([]int64, len(devices)),
		}
		for s := range union {
			ra.sids[s] = int32(len(ra.keys))
			ra.keys = append(ra.keys, s)
		}
		rows := 0
		for _, d := range devices {
			rows += len(uploads[d].Roles[r].Table.Q)
		}
		words := indexWords(len(union))
		idxSlab := make([]uint64, len(devices)*words)
		qSlab := make([]float64, rows*a)
		wSlab := make([]int32, rows)
		off := 0
		for i, d := range devices {
			t := uploads[d].Roles[r].Table
			ra.steps[i] = t.Steps
			ra.stepsSum += t.Steps
			ra.trained[i] = t.TrainedUS
			ra.inert[i] = inertVisits(t)
			n := len(t.Q)
			c := &ra.cols[i]
			c.idx = idxSlab[i*words : (i+1)*words : (i+1)*words]
			c.q = qSlab[off*a : (off+n)*a : (off+n)*a]
			c.w = wSlab[off : off+n : off+n]
			off += n
			for s := range t.Q {
				sid := ra.sids[s]
				c.idx[sid>>6*2] |= 1 << (sid & 63)
				ra.holders[sid]++
			}
			countRows(c.idx)
			for s, row := range t.Q {
				sid := ra.sids[s]
				k := c.rowOf(sid)
				copy(c.q[k*a:(k+1)*a], row)
				c.setWeight(k, sid, effectiveWeight(t, s))
			}
		}
		m.roles[r] = ra
	}
	m.merged = merged
	return merged, devices, nil
}

// effectiveWeight is mergeTables' per-device weight rule: the visit
// count, floored at 1 for states seen but unweighted.
func effectiveWeight(t *core.QTable, s core.StateKey) int {
	return max(t.Visits[s], 1)
}

// inertVisits collects t's positive visit counts for states without a
// row, or nil when there are none.
func inertVisits(t *core.QTable) map[core.StateKey]int {
	var out map[core.StateKey]int
	for s, v := range t.Visits {
		if _, hasRow := t.Q[s]; hasRow || v <= 0 {
			continue
		}
		if out == nil {
			out = make(map[core.StateKey]int)
		}
		out[s] = v
	}
	return out
}

// device returns a device's sorted position, or false when the arena
// does not know it.
func (m *Merger) device(id string) (int, bool) {
	return slices.BinarySearch(m.devices, id)
}

// fits reports whether set has the arena's learner, role layout and
// action count.
func (m *Merger) fits(set *learner.TableSet) bool {
	if set == nil || set.Primary() == nil ||
		learner.Normalize(set.Learner) != m.learnerName ||
		len(set.Roles) != len(m.roleNames) {
		return false
	}
	for i, r := range set.Roles {
		if r.Role != m.roleNames[i] || r.Table == nil || r.Table.Actions != m.actions {
			return false
		}
	}
	return true
}

// fitsSorted is fits for a set in sorted form.
func (m *Merger) fitsSorted(set *core.SortedSet) bool {
	if set == nil || learner.Normalize(set.Learner) != m.learnerName ||
		set.Actions != m.actions || len(set.Roles) != len(m.roleNames) {
		return false
	}
	for i := range set.Roles {
		if set.Roles[i].Role != m.roleNames[i] {
			return false
		}
	}
	return true
}

// setMeta records device idx's Steps/TrainedUS, keeping the exact sum.
func (ra *roleArena) setMeta(idx int, steps, trained int64) {
	ra.stepsSum += steps - ra.steps[idx]
	ra.steps[idx] = steps
	ra.trained[idx] = trained
}

// sid returns state s's sid, assigning one when the arena has none.
func (ra *roleArena) sid(s core.StateKey) int32 {
	if sid, ok := ra.sids[s]; ok {
		return sid
	}
	var sid int32
	if n := len(ra.free); n > 0 {
		sid = ra.free[n-1]
		ra.free = ra.free[:n-1]
		ra.keys[sid] = s
	} else {
		sid = int32(len(ra.keys))
		ra.keys = append(ra.keys, s)
		ra.holders = append(ra.holders, 0)
		if w := indexWords(len(ra.keys)); w > len(ra.dirty) {
			ra.dirty = append(ra.dirty, 0, 0)
		}
	}
	ra.sids[s] = sid
	return sid
}

// markDirty queues state sid for the next Merge.
func (ra *roleArena) markDirty(sid int32) {
	ra.dirty[sid>>6*2] |= 1 << (sid & 63)
}

// writeRow overwrites row k of c, dirtying state sid when its
// contribution changed.
func (ra *roleArena) writeRow(c *column, k int, sid int32, row []float64, w, a int) {
	dst := c.q[k*a : (k+1)*a]
	if c.weight(k, sid) != w || !slices.Equal(dst, row) {
		ra.markDirty(sid)
	}
	copy(dst, row)
	c.setWeight(k, sid, w)
}

// stageRow queues a row for state sid, which the device has none for,
// until the upload's repack.
func (m *Merger) stageRow(ra *roleArena, sid int32, row []float64, w int) {
	m.staged = append(m.staged, stagedRow{sid: sid, at: int32(len(m.staged)), w: w})
	m.stagedQ = append(m.stagedQ, row...)
	ra.holders[sid]++
	ra.markDirty(sid)
}

// repack rebuilds column c into buffers of its new size: its rows,
// less those among the first len(seen) whose seen flag is false (the
// states a full upload no longer has; seen is nil for a delta), merged
// in sid order with the staged rows.
func (m *Merger) repack(ra *roleArena, c *column, seen []bool) {
	a := m.actions
	staged := m.staged
	slices.SortFunc(staged, func(x, y stagedRow) int { return int(x.sid - y.sid) })
	old := *c
	n := old.rows() + len(staged)
	for _, s := range seen {
		if !s {
			n--
		}
	}
	c.idx = make([]uint64, max(len(old.idx), indexWords(len(ra.keys))))
	c.q, c.w = make([]float64, n*a), make([]int32, n)
	j := 0
	put := func(sid int32, row []float64, w int) {
		copy(c.q[j*a:(j+1)*a], row)
		c.setWeight(j, sid, w)
		c.idx[sid>>6*2] |= 1 << (sid & 63)
		j++
	}
	putStaged := func(below int32) {
		for len(staged) > 0 && staged[0].sid < below {
			s := staged[0]
			put(s.sid, m.stagedQ[int(s.at)*a:int(s.at+1)*a], s.w)
			staged = staged[1:]
		}
	}
	old.each(func(k int, sid int32) {
		putStaged(sid)
		if k < len(seen) && !seen[k] {
			delete(c.wide, sid)
			ra.holders[sid]--
			ra.markDirty(sid)
			return
		}
		put(sid, old.q[k*a:(k+1)*a], old.weight(k, sid))
	})
	putStaged(math.MaxInt32)
	countRows(c.idx)
	m.staged, m.stagedQ = m.staged[:0], m.stagedQ[:0]
}

// Upload integrates a device's replacement table set into the arena,
// diffing it against the device's rows and dirtying only states whose
// contribution (row values or weight) changed or that the device no
// longer has. It returns false — arena untouched, caller must Rebuild
// — on any structural change: a device the arena doesn't know, a
// different learner or role layout, or a different action count.
func (m *Merger) Upload(device string, next *learner.TableSet) bool {
	idx, ok := m.device(device)
	if !ok || !m.fits(next) {
		return false
	}
	a := m.actions
	for r := range m.roleNames {
		ra := m.roles[r]
		t := next.Roles[r].Table
		c := &ra.cols[idx]
		ra.setMeta(idx, t.Steps, t.TrainedUS)
		seen := append(m.seen[:0], make([]bool, c.rows())...)
		kept := 0
		for s, row := range t.Q {
			sid := ra.sid(s)
			w := effectiveWeight(t, s)
			if k := c.rowOf(sid); k >= 0 {
				seen[k] = true
				kept++
				ra.writeRow(c, k, sid, row, w, a)
			} else {
				m.stageRow(ra, sid, row, w)
			}
		}
		if kept < len(seen) || len(m.staged) > 0 {
			m.repack(ra, c, seen)
		}
		m.seen = seen
		ra.inert[idx] = inertVisits(t)
	}
	return true
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
// Rows and visit counts are joined in key order in one pass. A delta
// cannot drop states; the column is rebuilt only when the delta brings
// states new to the device. It returns false — arena untouched — for a
// device the arena doesn't know or a set whose layout differs from the
// arena's.
func (m *Merger) UploadDelta(device string, delta *core.SortedSet) bool {
	idx, ok := m.device(device)
	if !ok || !m.fitsSorted(delta) {
		return false
	}
	a := m.actions
	for r := range m.roleNames {
		ra := m.roles[r]
		t := &delta.Roles[r]
		c := &ra.cols[idx]
		ra.setMeta(idx, t.Steps, t.TrainedUS)
		v := 0 // next visit count
		for i, s := range t.Keys {
			for ; v < len(t.VisitKeys) && t.VisitKeys[v] < s; v++ {
				ra.rowlessVisit(idx, t.VisitKeys[v], t.Visits[v])
			}
			sid := ra.sid(s)
			k := c.rowOf(sid)
			var w int
			switch {
			case v < len(t.VisitKeys) && t.VisitKeys[v] == s:
				w = t.Visits[v]
				v++
			case k >= 0:
				w = c.weight(k, sid)
			default:
				w = ra.inert[idx][s]
			}
			if k >= 0 {
				ra.writeRow(c, k, sid, t.Row(i, a), max(w, 1), a)
			} else {
				m.stageRow(ra, sid, t.Row(i, a), max(w, 1))
			}
			if len(ra.inert[idx]) > 0 {
				delete(ra.inert[idx], s)
			}
		}
		for ; v < len(t.VisitKeys); v++ {
			ra.rowlessVisit(idx, t.VisitKeys[v], t.Visits[v])
		}
		if len(m.staged) > 0 {
			m.repack(ra, c, nil)
		}
	}
	return true
}

// rowlessVisit applies a delta's visit count v for state s, which the
// delta sends no row for: it re-weights device idx's existing row, or
// is remembered while the device has no row there. Staged rows are
// never s's, so it may run before their repack.
func (ra *roleArena) rowlessVisit(idx int, s core.StateKey, v int) {
	c := &ra.cols[idx]
	if sid, ok := ra.sids[s]; ok {
		if k := c.rowOf(sid); k >= 0 {
			if w := max(v, 1); w != c.weight(k, sid) {
				c.setWeight(k, sid, w)
				ra.markDirty(sid)
			}
			return
		}
	}
	if v <= 0 {
		delete(ra.inert[idx], s)
		return
	}
	if ra.inert[idx] == nil {
		ra.inert[idx] = make(map[core.StateKey]int)
	}
	ra.inert[idx][s] = v
}

// Tables returns every device's contribution as the arena holds it,
// keyed by device ID: the rows of each state it has, with their
// effective merge weights as visit counts, the visit counts it sent
// without a row, and Steps/TrainedUS. JoinDevices over the result
// equals Merge, and Rebuild over it (plus new devices) recreates the
// arena. Rows alias the arena's buffers: read them only, and only
// until the next Upload, UploadDelta or Rebuild.
func (m *Merger) Tables() map[string]*learner.TableSet {
	a := m.actions
	out := make(map[string]*learner.TableSet, len(m.devices))
	for i, d := range m.devices {
		set := &learner.TableSet{Learner: m.learnerName, Roles: make([]learner.RoleTable, len(m.roleNames))}
		for r, ra := range m.roles {
			c := &ra.cols[i]
			inert := ra.inert[i]
			t := &core.QTable{
				Actions:   a,
				Q:         make(map[core.StateKey][]float64, c.rows()),
				Visits:    make(map[core.StateKey]int, c.rows()+len(inert)),
				Steps:     ra.steps[i],
				TrainedUS: ra.trained[i],
			}
			for s, v := range inert {
				t.Visits[s] = v
			}
			c.each(func(k int, sid int32) {
				s := ra.keys[sid]
				t.Q[s] = c.q[k*a : (k+1)*a : (k+1)*a]
				t.Visits[s] = c.weight(k, sid)
			})
			set.Roles[r] = learner.RoleTable{Role: m.roleNames[r], Table: t}
		}
		out[d] = set
	}
	return out
}

// Merge produces the merged set for the arena's current uploads,
// recomputing only dirty states and aliasing every clean state's row
// from the previous output. The returned set is freshly allocated
// (rows shared with prior outputs are immutable); Merge is byte-
// identical to JoinDevices over the same uploads.
func (m *Merger) Merge() *learner.TableSet {
	if m.merged == nil {
		return nil
	}
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
		m.accumulate(ra)
		o := 0
		for b := 0; b < len(ra.dirty); b += 2 {
			for set := ra.dirty[b]; set != 0; set &= set - 1 {
				sid := int32(b<<5 + bits.TrailingZeros64(set))
				s := ra.keys[sid]
				if ra.holders[sid] == 0 { // every device dropped it
					delete(nt.Q, s)
					delete(nt.Visits, s)
					delete(ra.sids, s)
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
		out.Roles[r] = learner.RoleTable{Role: roleName, Table: nt}
	}
	m.merged = out
	return out
}

// accumulate is mergeTables' inner loop over the dirty states: walking
// the devices in sorted order, it adds each weight-scaled row of a
// dirty state into that state's accumulator (m.sum, by the state's
// dirty rank) and the weight into m.weight. Every state's terms are
// thus summed in device order, as mergeTables sums them.
//
// A column and the dirty set share one index layout, so each block of
// 64 sids intersects them with one AND, and a device's rows there and
// their accumulators are found by rank. Where a device has exactly the
// block's dirty states, both are one contiguous run. Devices go in
// pairs, block by block — the first device's terms of a block before
// the second's — and where both have exactly the block's dirty states
// one pass adds both, loading and storing each accumulator once.
func (m *Merger) accumulate(ra *roleArena) {
	a := m.actions
	dirty := ra.dirty
	n := countRows(dirty)
	m.sum = slices.Grow(m.sum[:0], n*a)[:n*a]
	m.weight = slices.Grow(m.weight[:0], n)[:n]
	clear(m.sum)
	clear(m.weight)
	for i := 0; i < len(ra.cols); i += 2 {
		c := &ra.cols[i]
		if i+1 == len(ra.cols) {
			for b := 0; b < len(dirty); b += 2 {
				m.addBlock(c, dirty, b)
			}
			break
		}
		d := &ra.cols[i+1]
		plain := len(c.wide) == 0 && len(d.wide) == 0
		for b := 0; b < len(dirty); b += 2 {
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
