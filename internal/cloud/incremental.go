package cloud

import (
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
	// order of every weighted sum, fixed at Rebuild.
	devices []string
	devIdx  map[string]int
	roles   []*roleArena
	merged  *learner.TableSet
	scratch []float64
}

// roleArena is one role's accumulator state across the fleet.
type roleArena struct {
	// slots maps state → per-device contributions, parallel to
	// Merger.devices.
	slots map[core.StateKey]*stateSlot
	// dirty marks states whose next Merge must recompute.
	dirty map[core.StateKey]struct{}
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

// stateSlot is one state's contributions, indexed by sorted-device
// position: device i's row lives at flat[i*actions:(i+1)*actions] and
// its effective merge weight (>= 1 when present, 0 when absent) at
// weights[i]. Rows are copied into the flat buffer at Rebuild/Upload
// so a dirty-state recompute walks contiguous memory instead of
// chasing one heap pointer per device — the copy costs O(changed
// rows) per upload, the sequential scan saves a cache miss per device
// per dirty state, which dominates at fleet scale.
type stateSlot struct {
	flat    []float64
	weights []int
	n       int // devices contributing; 0 = state no longer exists
}

// row returns device i's contribution, or nil when absent.
func (s *stateSlot) row(i, actions int) []float64 {
	if s.weights[i] == 0 {
		return nil
	}
	return s.flat[i*actions : (i+1)*actions]
}

// NewMerger returns an empty arena; Rebuild must run before Merge.
func NewMerger() *Merger { return &Merger{} }

// Rebuild recomputes the merge from scratch via JoinDevices — the
// pinned reference path, so its output IS the from-scratch result —
// and rebuilds the arena over the given uploads. Rows are copied into
// the arena; neither the map nor its tables are retained.
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
	m.devIdx = make(map[string]int, len(devices))
	for i, d := range devices {
		m.devIdx[d] = i
	}
	m.scratch = make([]float64, m.actions)
	m.roles = make([]*roleArena, len(m.roleNames))
	for r := range m.roleNames {
		ra := &roleArena{
			slots:   make(map[core.StateKey]*stateSlot, len(merged.Roles[r].Table.Q)),
			dirty:   make(map[core.StateKey]struct{}),
			inert:   make([]map[core.StateKey]int, len(devices)),
			steps:   make([]int64, len(devices)),
			trained: make([]int64, len(devices)),
		}
		for i, d := range devices {
			t := uploads[d].Roles[r].Table
			ra.steps[i] = t.Steps
			ra.stepsSum += t.Steps
			ra.trained[i] = t.TrainedUS
			ra.inert[i] = inertVisits(t)
			for s, row := range t.Q {
				slot := ra.slots[s]
				if slot == nil {
					slot = newStateSlot(len(devices), m.actions)
					ra.slots[s] = slot
				}
				copy(slot.flat[i*m.actions:], row)
				slot.weights[i] = effectiveWeight(t, s)
				slot.n++
			}
		}
		m.roles[r] = ra
	}
	m.merged = merged
	return merged, devices, nil
}

func newStateSlot(devices, actions int) *stateSlot {
	return &stateSlot{flat: make([]float64, devices*actions), weights: make([]int, devices)}
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

// setMeta records device idx's Steps/TrainedUS, keeping the exact sum.
func (ra *roleArena) setMeta(idx int, t *core.QTable) {
	ra.stepsSum += t.Steps - ra.steps[idx]
	ra.steps[idx] = t.Steps
	ra.trained[idx] = t.TrainedUS
}

// slotFor returns state s's slot, creating an empty one.
func (m *Merger) slotFor(ra *roleArena, s core.StateKey) *stateSlot {
	slot := ra.slots[s]
	if slot == nil {
		slot = newStateSlot(len(m.devices), m.actions)
		ra.slots[s] = slot
	}
	return slot
}

// setRow installs device idx's row and weight in state s's slot,
// dirtying the state when its contribution changed.
func (m *Merger) setRow(ra *roleArena, slot *stateSlot, idx int, s core.StateKey, row []float64, w int) {
	old := slot.row(idx, m.actions)
	if old == nil {
		slot.n++
		ra.dirty[s] = struct{}{}
	} else if slot.weights[idx] != w || !slices.Equal(old, row) {
		ra.dirty[s] = struct{}{}
	}
	copy(slot.flat[idx*m.actions:], row)
	slot.weights[idx] = w
}

// Upload integrates a device's replacement table set into the arena,
// diffing it against the rows already there and dirtying only states
// whose contribution (row values or weight) changed. States the device
// no longer has leave the merge, so Upload also scans every slot. It
// returns false — arena untouched, caller must Rebuild — on any
// structural change: a device the arena doesn't know, a different
// learner or role layout, or a different action count.
func (m *Merger) Upload(device string, next *learner.TableSet) bool {
	idx, ok := m.devIdx[device]
	if !ok || !m.fits(next) {
		return false
	}
	for r := range m.roleNames {
		ra := m.roles[r]
		t := next.Roles[r].Table
		ra.setMeta(idx, t)
		for s, row := range t.Q {
			m.setRow(ra, m.slotFor(ra, s), idx, s, row, effectiveWeight(t, s))
		}
		// States the device previously contributed but dropped.
		for s, slot := range ra.slots {
			if slot.weights[idx] == 0 {
				continue
			}
			if _, still := t.Q[s]; still {
				continue
			}
			slot.weights[idx] = 0
			slot.n--
			ra.dirty[s] = struct{}{}
		}
		ra.inert[idx] = inertVisits(t)
	}
	return true
}

// UploadDelta overlays a delta upload on the device's contribution,
// touching only the delta's states. The rule is a full upload of the
// device's previous table with the delta laid over it:
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
// A delta cannot drop states, so there is no slot scan. It returns
// false — arena untouched — for a device the arena doesn't know or a
// set whose layout differs from the arena's.
func (m *Merger) UploadDelta(device string, delta *learner.TableSet) bool {
	idx, ok := m.devIdx[device]
	if !ok || !m.fits(delta) {
		return false
	}
	for r := range m.roleNames {
		ra := m.roles[r]
		t := delta.Roles[r].Table
		ra.setMeta(idx, t)
		inert := ra.inert[idx]
		sent := 0 // visit counts that came with their row
		for s, row := range t.Q {
			slot := m.slotFor(ra, s)
			v, ok := t.Visits[s]
			switch {
			case ok:
				sent++
			case slot.weights[idx] > 0:
				v = slot.weights[idx]
			default:
				v = inert[s]
			}
			m.setRow(ra, slot, idx, s, row, max(v, 1))
			if len(inert) > 0 {
				delete(inert, s)
			}
		}
		if sent < len(t.Visits) {
			ra.rowlessVisits(idx, t)
		}
	}
	return true
}

// rowlessVisits applies a delta's visit counts for states it sends no
// row for: each re-weights device idx's existing row, or is remembered
// while the device has no row there.
func (ra *roleArena) rowlessVisits(idx int, t *core.QTable) {
	for s, v := range t.Visits {
		if _, hasRow := t.Q[s]; hasRow {
			continue
		}
		if slot := ra.slots[s]; slot != nil && slot.weights[idx] > 0 {
			if w := max(v, 1); w != slot.weights[idx] {
				slot.weights[idx] = w
				ra.dirty[s] = struct{}{}
			}
			continue
		}
		if v <= 0 {
			delete(ra.inert[idx], s)
			continue
		}
		if ra.inert[idx] == nil {
			ra.inert[idx] = make(map[core.StateKey]int)
		}
		ra.inert[idx][s] = v
	}
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
	sets := make([]*learner.TableSet, len(m.devices))
	out := make(map[string]*learner.TableSet, len(m.devices))
	for i, d := range m.devices {
		sets[i] = &learner.TableSet{Learner: m.learnerName, Roles: make([]learner.RoleTable, len(m.roleNames))}
		out[d] = sets[i]
	}
	for r, ra := range m.roles {
		for i, set := range sets {
			t := core.NewQTable(a)
			t.Steps = ra.steps[i]
			t.TrainedUS = ra.trained[i]
			for s, v := range ra.inert[i] {
				t.Visits[s] = v
			}
			set.Roles[r] = learner.RoleTable{Role: m.roleNames[r], Table: t}
		}
		for s, slot := range ra.slots {
			for i, w := range slot.weights {
				if w == 0 {
					continue
				}
				t := sets[i].Roles[r].Table
				t.Q[s] = slot.flat[i*a : (i+1)*a : (i+1)*a]
				t.Visits[s] = w
			}
		}
	}
	return out
}

// Merge produces the merged set for the arena's current uploads,
// recomputing only dirty states — each in sorted-device order, the
// same term order as mergeTables — and aliasing every clean state's
// row from the previous output. The returned set is freshly allocated
// (rows shared with prior outputs are immutable); Merge is byte-
// identical to JoinDevices over the same uploads.
func (m *Merger) Merge() *learner.TableSet {
	if m.merged == nil {
		return nil
	}
	out := &learner.TableSet{Learner: m.learnerName, Roles: make([]learner.RoleTable, len(m.roleNames))}
	for r, roleName := range m.roleNames {
		ra := m.roles[r]
		prev := m.merged.Roles[r].Table
		nt := core.NewQTable(m.actions)
		nt.Q = make(map[core.StateKey][]float64, len(ra.slots))
		nt.Visits = make(map[core.StateKey]int, len(ra.slots))
		for s, slot := range ra.slots {
			if slot.n == 0 {
				delete(ra.slots, s) // every contributor dropped it
				continue
			}
			if _, dirty := ra.dirty[s]; dirty {
				row, weight := m.recompute(slot)
				nt.Q[s] = row
				nt.Visits[s] = weight
			} else {
				nt.Q[s] = prev.Q[s]
				nt.Visits[s] = prev.Visits[s]
			}
		}
		nt.Steps = ra.stepsSum
		var trained int64
		for _, v := range ra.trained {
			if v > trained {
				trained = v
			}
		}
		nt.TrainedUS = trained
		out.Roles[r] = learner.RoleTable{Role: roleName, Table: nt}
		clear(ra.dirty)
	}
	m.merged = out
	return out
}

// recompute is mergeTables' inner loop for one state: accumulate
// weight-scaled rows in device order, divide once by the total weight.
// Absent devices are skipped by weight, present rows stream out of the
// slot's flat buffer in order — one sequential pass over contiguous
// memory.
func (m *Merger) recompute(slot *stateSlot) ([]float64, int) {
	sum := m.scratch
	for i := range sum {
		sum[i] = 0
	}
	a := m.actions
	weight := 0
	for i, w := range slot.weights {
		if w == 0 {
			continue
		}
		fw := float64(w)
		row := slot.flat[i*a : i*a+a]
		sum = sum[:len(row)]
		for j, v := range row {
			sum[j] += v * fw
		}
		weight += w
	}
	out := make([]float64, len(sum))
	fw := float64(weight)
	for j := range out {
		out[j] = sum[j] / fw
	}
	return out, weight
}
