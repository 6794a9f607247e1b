package fleetd

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"nextdvfs/internal/cloud"
	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
)

// Key identifies one fleet policy: an application trained on a device
// platform. Tables from different platforms never merge — their action
// spaces (3 per cluster) differ with the cluster count.
type Key struct {
	App      string `json:"app"`
	Platform string `json:"platform"`
}

func (k Key) String() string { return k.App + "@" + k.Platform }

// safeName guards every identifier that later becomes a snapshot path
// component (app and platform name files and directories under the
// snapshot dir) or a store map key: one path segment of
// [a-zA-Z0-9._-], no separators, no "." / "..". Requests come from
// unauthenticated devices, so "../../../tmp/pwn" must die here, not in
// filepath.Join (which would happily clean and escape it).
func safeName(s string) bool {
	if s == "" || len(s) > 128 || s == "." || s == ".." {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// SafeName reports whether s passes the store's identifier rules (the
// aggregator tier applies the same validation before queueing uploads
// for upward federation).
func SafeName(s string) bool { return safeName(s) }

// validate checks both names of the key; tier names the fleet tier in
// the error.
func (k Key) validate(tier string) error {
	if !safeName(k.App) {
		return fmt.Errorf("%s: bad app name %q (want a single [a-zA-Z0-9._-] segment)", tier, k.App)
	}
	if !safeName(k.Platform) {
		return fmt.Errorf("%s: bad platform name %q (want a single [a-zA-Z0-9._-] segment)", tier, k.Platform)
	}
	return nil
}

// numShards stripes the store's locks. Requests for different
// app×platform keys proceed in parallel; only same-key operations
// serialize, which is exactly the ordering a merge round needs.
const numShards = 16

// Uploads are unauthenticated, so the store bounds both axes an
// ID-spraying client could grow: distinct app×platform keys per shard
// and distinct devices per key. Both sit far above any real fleet this
// repo simulates; hitting one returns an error, never silent eviction.
const (
	maxKeysPerShard  = 1024
	maxDevicesPerKey = 4096
)

// Uploaded tables are attacker-controlled JSON, so every quantity that
// feeds the federated merge is clamped into ranges the merge cannot
// overflow. maxVisitWeight bounds a state's visit count: the merge
// accumulator is a plain int, so the worst-case total weight
// (maxVisitWeight × maxDevicesPerKey = 2^18 × 2^12 = 2^30) must fit a
// 32-bit int too — and 2^18 visits of one state is hours of control
// steps, far beyond any real session. maxQValue bounds Q magnitudes:
// JSON happily carries 1e308, and summing that across devices (or
// multiplying by a weight) reaches ±Inf/NaN, which json.Marshal then
// refuses — one hostile upload would otherwise brick the policy's
// download and snapshot path until restart. PPDW-reward Q-values are
// O(1), so 1e12 is astronomically above legitimate data. maxCounter
// bounds the Steps/TrainedUS bookkeeping sums the same way.
const (
	maxVisitWeight = 1 << 18
	maxQValue      = 1e12
	maxCounter     = int64(1) << 48
)

// sanitizeSet clamps every role table of an uploaded set.
func sanitizeSet(set *learner.TableSet) {
	for _, r := range set.Roles {
		sanitizeTable(r.Table)
	}
}

// sanitizeTable clamps an uploaded table's counters and Q-values into
// merge-safe ranges (see the constant block above for why each bound
// exists).
func sanitizeTable(t *core.QTable) {
	for s, v := range t.Visits {
		if c := clampVisits(v); c != v {
			t.Visits[s] = c
		}
	}
	for _, row := range t.Q {
		for i, v := range row {
			if c := clampQ(v); c != v {
				row[i] = c
			}
		}
	}
	t.Steps, t.TrainedUS, t.ConvergedAtUS = clampCounter(t.Steps), clampCounter(t.TrainedUS), clampCounter(t.ConvergedAtUS)
}

// sanitizeSorted is sanitizeTable for every role of a delta in sorted
// form.
func sanitizeSorted(set *core.SortedSet) {
	for i := range set.Roles {
		t := &set.Roles[i]
		for j, v := range t.Visits {
			t.Visits[j] = clampVisits(v)
		}
		for j, v := range t.Q {
			t.Q[j] = clampQ(v)
		}
		t.Steps, t.TrainedUS, t.ConvergedAtUS = clampCounter(t.Steps), clampCounter(t.TrainedUS), clampCounter(t.ConvergedAtUS)
	}
}

// The sanitize rules, one per kind of value.
func clampVisits(v int) int { return min(max(v, 0), maxVisitWeight) }

func clampCounter(v int64) int64 { return min(max(v, 0), maxCounter) }

func clampQ(v float64) float64 {
	switch {
	case v != v: // NaN can't arrive via JSON, but costs nothing to kill
		return 0
	case v > maxQValue:
		return maxQValue
	case v < -maxQValue:
		return -maxQValue
	}
	return v
}

// Store is fleetd's in-memory table store: a fixed array of shards,
// each a mutex-striped map from Key to the per-policy entry (every
// device's latest table, held in the merge arena, plus the current
// merged table).
type Store struct {
	shards [numShards]storeShard
	// maxDevices bounds distinct devices per key (maxDevicesPerKey by
	// default). A root store absorbing whole aggregator regions raises
	// it via NewStoreMaxDevices — see docs/operations.md, "Capacity
	// limits".
	maxDevices int
	// encodes counts policy-body encodes (memo fills) per encoding.
	encodes [numEncodings]atomic.Int64
	// merges counts merge rounds per path (fleetd_merges_total).
	merges [numMergePaths]atomic.Int64
}

// A merge round either recomputes the arena's dirty states or rebuilds
// the arena from scratch; merges counts each path.
const (
	mergeIncremental = iota
	mergeRebuild
	numMergePaths
)

type storeShard struct {
	mu      sync.RWMutex
	entries map[Key]*entry
}

type entry struct {
	// arena is the incremental merge arena over every merged-in device:
	// the store's only copy of those devices' tables. Nil until the
	// first merge round.
	arena *cloud.Merger
	// pending holds the sanitized full uploads of devices the arena
	// does not have yet, owned by the store (see UploadSetGen). A
	// pending set overrides the device's arena column; the next merge
	// round rebuilds the arena over both and empties it.
	pending map[string]*learner.TableSet
	// pub is the current served policy — the merged set and its
	// encoded bodies, installed together — nil until the first merge
	// round (or snapshot restore); round counts merge rounds.
	pub   *published
	round int64
	// devGen counts accepted uploads per device — the generation a
	// delta upload must echo to prove its base is the table the store
	// holds (see UploadDelta). Its keys are exactly the devices in
	// pending or the arena.
	devGen map[string]int64
}

// NewStoreMaxDevices returns an empty store accepting up to maxDevices
// distinct devices per policy key (≤ 0 → the default cap). The root of
// a hierarchical fleet holds the raw per-device tables of every region
// — byte-identity with a flat merge demands raw tables, not regional
// pre-averages — so its cap is sized to the whole fleet, while edge
// aggregators and standalone servers keep the tighter anti-spray bound.
func NewStoreMaxDevices(maxDevices int) *Store {
	if maxDevices <= 0 {
		maxDevices = maxDevicesPerKey
	}
	s := &Store{maxDevices: maxDevices}
	for i := range s.shards {
		s.shards[i].entries = make(map[Key]*entry)
	}
	return s
}

func (s *Store) shardFor(k Key) *storeShard {
	h := fnv.New32a()
	h.Write([]byte(k.App))
	h.Write([]byte{0})
	h.Write([]byte(k.Platform))
	return &s.shards[h.Sum32()%numShards]
}

// admit runs the checks every upload passes before the store takes a
// lock: key and device names, a non-empty set, and learner registry
// validation. The registry check comes before anything is stored: a
// hostile first upload with a made-up learner name (or bogus role
// names) would otherwise pin an unmatchable layout onto the key and
// lock out every legitimate device. kind names the upload in errors.
func admit(k Key, device string, set *learner.TableSet, kind string) error {
	if err := admitNames(k, device); err != nil {
		return err
	}
	if set == nil || set.Primary() == nil {
		return fmt.Errorf("fleetd: %s: empty %s from %q", k, kind, device)
	}
	if err := learner.ValidateSet(set); err != nil {
		return fmt.Errorf("fleetd: %s: %s from %q: %w", k, kind, device, err)
	}
	return nil
}

// admitNames checks an upload's key and device names.
func admitNames(k Key, device string) error {
	if err := k.validate("fleetd"); err != nil {
		return err
	}
	if !safeName(device) {
		return fmt.Errorf("fleetd: %s: bad device ID %q (want a single [a-zA-Z0-9._-] segment)", k, device)
	}
	return nil
}

// UploadSetGen records a device's complete learner table set as its
// latest upload for the key, replacing any previous one. It returns
// how many devices have contributed and the device's new upload
// generation, which the server echoes so the client can base its next
// delta upload on this one.
//
// The store takes ownership of the set and sanitizes it in place: the
// caller must hold no other reference to it (the HTTP handlers qualify
// — each request decodes a fresh set — and skipping a defensive clone
// is worth ~15% on the check-in hot path). Every upload for a key must
// come from the same learner (same registry name and role layout) and
// action-space size: tables merge role-by-role, and averaging a
// Double-Q estimator into a single-table policy would silently corrupt
// both.
func (s *Store) UploadSetGen(k Key, device string, set *learner.TableSet) (devices int, gen int64, err error) {
	if err := admit(k, device, set, "upload"); err != nil {
		return 0, 0, err
	}
	// The set is the caller's own, so it is clamped before the lock;
	// a refused upload leaves the store as it was.
	sanitizeSet(set)
	sh := s.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, err := s.entryForUpload(sh, k, device, set)
	if err != nil {
		return 0, 0, err
	}
	// A merged-in device's upload replaces its arena column; any other
	// waits in pending for the next round's rebuild.
	if _, ok := e.pending[device]; ok || e.arena == nil || !e.arena.Upload(device, set) {
		e.pending[device] = set
	}
	gen = e.bumpGen(device)
	return len(e.devGen), gen, nil
}

// entryForUpload runs the per-entry admission checks (key/device caps,
// action-space and learner consistency) and returns the entry, creating
// it on first contact. Callers hold the shard write lock.
func (s *Store) entryForUpload(sh *storeShard, k Key, device string, set *learner.TableSet) (*entry, error) {
	e := sh.entries[k]
	if e == nil {
		if len(sh.entries) >= maxKeysPerShard {
			return nil, fmt.Errorf("fleetd: %s: policy-key limit reached (%d per shard)", k, maxKeysPerShard)
		}
		e = &entry{pending: make(map[string]*learner.TableSet), devGen: make(map[string]int64)}
		sh.entries[k] = e
	}
	// ValidateSet already pinned the role layout to the learner name,
	// so cross-upload consistency reduces to the name and action count.
	if ref := e.anySet(); ref != nil {
		if want := ref.Primary().Actions; set.Primary().Actions != want {
			return nil, fmt.Errorf("fleetd: %s: upload from %q has %d actions, fleet has %d", k, device, set.Primary().Actions, want)
		}
		if learner.Normalize(ref.Learner) != learner.Normalize(set.Learner) {
			return nil, fmt.Errorf("fleetd: %s: upload from %q: learner %q does not match the fleet's %q",
				k, device, learner.Normalize(set.Learner), learner.Normalize(ref.Learner))
		}
	}
	if _, seen := e.devGen[device]; !seen && len(e.devGen) >= s.maxDevices {
		return nil, fmt.Errorf("fleetd: %s: device limit reached (%d)", k, s.maxDevices)
	}
	return e, nil
}

// bumpGen advances the device's upload generation and returns it.
// Callers hold the shard write lock.
func (e *entry) bumpGen(device string) int64 {
	e.devGen[device]++
	return e.devGen[device]
}

// ErrDeltaBase marks a delta upload whose base generation does not
// match the set the store holds for the device — the client's view is
// stale (server restart, lost reply, aggregator tier that does not
// store deltas) and it must fall back to a full upload. The server
// maps it to HTTP 409.
var ErrDeltaBase = errors.New("fleetd: delta base generation mismatch")

// UploadDelta is uploadDelta for a delta held as a table set. It is
// the last table-set delta entry point, kept for the frozen benchmark's
// replay; ROADMAP item 9 folds it into one Store.Upload.
func (s *Store) UploadDelta(k Key, device string, delta *learner.TableSet, baseGen int64) (devices int, gen int64, err error) {
	sorted, err := core.SortTableSet(delta)
	if err != nil {
		return 0, 0, fmt.Errorf("fleetd: %s: delta from %q: %w", k, device, err)
	}
	return s.uploadDelta(k, device, sorted, baseGen)
}

// uploadDelta applies a delta upload, in the sorted form the upload
// handler decodes: only the states changed since the device's last
// accepted upload (plus absolute metadata), guarded by the generation
// echo from that upload. The delta's layout must match the stored base
// exactly; states in the delta replace the base's, states absent carry
// over. A merged-in device's delta goes straight into the merge arena
// and costs O(states in the delta). On success it returns the device
// count and the new generation for the next delta. A missing base or a
// stale baseGen fails with ErrDeltaBase (full upload required); the
// store is never modified on error. The store takes ownership of delta
// and sanitizes it in place, refused or not.
func (s *Store) uploadDelta(k Key, device string, delta *core.SortedSet, baseGen int64) (devices int, gen int64, err error) {
	if err := admitNames(k, device); err != nil {
		return 0, 0, err
	}
	sanitizeSorted(delta) // the caller's own set, clamped before the lock
	sh := s.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entries[k]
	if e == nil {
		return 0, 0, fmt.Errorf("fleetd: %s: delta from %q: %w (no uploads for key)", k, device, ErrDeltaBase)
	}
	have, ok := e.devGen[device]
	if !ok {
		return 0, 0, fmt.Errorf("fleetd: %s: delta from %q: %w (no base upload)", k, device, ErrDeltaBase)
	}
	if have != baseGen {
		return 0, 0, fmt.Errorf("fleetd: %s: delta from %q: %w (base %d, store at %d)", k, device, ErrDeltaBase, baseGen, have)
	}
	badLayout := func() error {
		return fmt.Errorf("fleetd: %s: delta from %q does not match the stored base layout", k, device)
	}
	if prev, ok := e.pending[device]; ok {
		if !sameLayout(prev, delta) {
			return 0, 0, badLayout()
		}
		// The pending base is sanitized and owned by the store; the
		// overlay shares its unchanged rows.
		e.pending[device] = applyDelta(prev, delta)
	} else {
		// UploadDelta checks the layout before it touches the arena, so
		// a refusal leaves the store as it was.
		if !e.arena.UploadDelta(device, delta) {
			return 0, 0, badLayout()
		}
	}
	gen = e.bumpGen(device)
	return len(e.devGen), gen, nil
}

// sameLayout reports whether a delta has its base's learner, action
// count and role layout.
func sameLayout(base *learner.TableSet, delta *core.SortedSet) bool {
	if learner.Normalize(delta.Learner) != learner.Normalize(base.Learner) ||
		delta.Actions != base.Primary().Actions ||
		len(delta.Roles) != len(base.Roles) {
		return false
	}
	for i := range delta.Roles {
		if delta.Roles[i].Role != base.Roles[i].Role {
			return false
		}
	}
	return true
}

// applyDelta overlays a delta on a pending base role-by-role. The
// result is a fresh set whose unchanged rows alias the base and whose
// new rows alias the delta; metadata is absolute from the delta.
// Merger.UploadDelta applies the same rule to merged-in devices.
func applyDelta(base *learner.TableSet, delta *core.SortedSet) *learner.TableSet {
	next := &learner.TableSet{Learner: base.Learner, Roles: make([]learner.RoleTable, len(base.Roles))}
	for i := range base.Roles {
		bt, dt := base.Roles[i].Table, &delta.Roles[i]
		nt := &core.QTable{
			Actions:       bt.Actions,
			Q:             make(map[core.StateKey][]float64, len(bt.Q)+len(dt.Keys)),
			Visits:        make(map[core.StateKey]int, len(bt.Visits)+len(dt.VisitKeys)),
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
		for j, s := range dt.Keys {
			nt.Q[s] = dt.Row(j, delta.Actions)
		}
		for j, s := range dt.VisitKeys {
			nt.Visits[s] = dt.Visits[j]
		}
		next.Roles[i] = learner.RoleTable{Role: base.Roles[i].Role, Table: nt}
	}
	return next
}

// anySet returns an established set of the entry for layout checks:
// the merged policy, else any pending upload (nil while empty). Every
// upload matches the first one's learner and action count, and the
// merged policy has their layout. Callers hold the lock.
func (e *entry) anySet() *learner.TableSet {
	if e.pub != nil {
		return e.pub.set
	}
	for _, set := range e.pending {
		return set
	}
	return nil
}

// MergeInfo summarizes one federated merge round.
type MergeInfo struct {
	App       string `json:"app"`
	Platform  string `json:"platform"`
	Round     int64  `json:"round"`
	Devices   int    `json:"devices"`
	States    int    `json:"states"`
	LatencyUS int64  `json:"latency_us"`
	// Version is the policy artifact the round minted (or deduped to)
	// when the server runs the rollout lifecycle; 0 otherwise.
	Version int64 `json:"version,omitempty"`
}

// MergeSet runs a federated merge round for the key: every device's
// latest upload, in sorted-device-ID order, through the visit-weighted
// federated average (cloud.JoinDevices). The result is a deterministic
// function of the uploads — concurrent rounds interleaved with uploads
// converge to the set a serial merge of the final uploads produces.
// It returns the round summary and the freshly installed, immutable
// published set, so the rollout layer can wrap the round's output as a
// policy artifact without re-locking the shard (and without racing a
// concurrent round for "which set did my round produce").
//
// The round runs under the shard write lock and takes one of two
// paths:
//
//   - incremental: with no device pending, the arena holds every
//     device's latest table, and the round recomputes only the states
//     uploads dirtied since the last round — O(changed state), not
//     O(fleet).
//   - rebuild: after new devices joined (or a device's upload did not
//     fit the arena), the round runs Merger.Rebuild — JoinDevices, the
//     pinned reference path — over the arena's columns plus the
//     pending uploads, and the new arena takes them all in. Same-key
//     uploads and pulls wait while it runs; other keys proceed.
//
// Every install puts the merged set in place together with a fresh,
// still empty body memo (see PolicyBody), so a pull never sees one
// round's bytes beside another round's set.
func (s *Store) MergeSet(k Key) (MergeInfo, *learner.TableSet, error) {
	if err := k.validate("fleetd"); err != nil {
		return MergeInfo{}, nil, err
	}
	sh := s.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entries[k]
	if e == nil || len(e.devGen) == 0 {
		return MergeInfo{}, nil, fmt.Errorf("fleetd: %s: no device tables to merge", k)
	}
	var merged *learner.TableSet
	if len(e.pending) == 0 {
		merged = e.arena.Merge()
		s.merges[mergeIncremental].Add(1)
	} else {
		tables := e.pending
		if e.arena != nil {
			tables = e.arena.Tables()
			for d, set := range e.pending {
				tables[d] = set
			}
		}
		arena := cloud.NewMerger()
		var err error
		if merged, _, err = arena.Rebuild(tables); err != nil {
			return MergeInfo{}, nil, fmt.Errorf("fleetd: %s: %w", k, err)
		}
		e.arena = arena
		clear(e.pending)
		s.merges[mergeRebuild].Add(1)
	}
	e.pub = s.publish(k.App, merged)
	e.round++
	return MergeInfo{
		App: k.App, Platform: k.Platform,
		Round: e.round, Devices: len(e.devGen), States: merged.Primary().States(),
	}, merged, nil
}

// PolicySetRef returns the key's current merged learner table set and
// its round number, or ok=false before the first merge round. The set
// is shared, not copied: published sets are immutable — MergeSet and
// Restore always install freshly built sets, never mutate one in place
// — so callers must only read it.
func (s *Store) PolicySetRef(k Key) (set *learner.TableSet, round int64, ok bool) {
	sh := s.shardFor(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e := sh.entries[k]
	if e == nil || e.pub == nil {
		return nil, 0, false
	}
	return e.pub.set, e.round, true
}

// KeyInfo describes one stored policy for listings and check-ins.
type KeyInfo struct {
	Key
	Devices int   `json:"devices"`
	Round   int64 `json:"round"`
	States  int   `json:"states"`
}

// Infos lists every key (platform == "" ) or just one platform's keys,
// sorted by platform then app.
func (s *Store) Infos(platform string) []KeyInfo {
	var infos []KeyInfo
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, e := range sh.entries {
			if platform != "" && k.Platform != platform {
				continue
			}
			info := KeyInfo{Key: k, Devices: len(e.devGen), Round: e.round}
			if e.pub != nil {
				info.States = e.pub.set.Primary().States()
			}
			infos = append(infos, info)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].Platform != infos[j].Platform {
			return infos[i].Platform < infos[j].Platform
		}
		return infos[i].App < infos[j].App
	})
	return infos
}

// Stats counts keys, merged policies and device uploads across the
// whole store (for /healthz and /metrics).
func (s *Store) Stats() (keys, merged, uploads int) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, e := range sh.entries {
			keys++
			uploads += len(e.devGen)
			if e.pub != nil {
				merged++
			}
		}
		sh.mu.RUnlock()
	}
	return keys, merged, uploads
}

// SnapshotKey persists the key's merged table set (if any) under
// dir/<platform>/<app>.qtable.json through core.Store, whose atomic
// temp-file + rename write guarantees concurrent snapshots never leave
// a torn file.
func (s *Store) SnapshotKey(dir string, k Key) error {
	set, _, ok := s.PolicySetRef(k) // SaveSet only reads; immutable published set
	if !ok {
		return nil
	}
	st := core.Store{Dir: filepath.Join(dir, k.Platform)}
	return st.SaveSet(k.App, set, true)
}

// Restore warm-starts the store from a snapshot directory: every
// dir/<platform>/<app>.qtable.json becomes a served policy at round 1.
// Restored policies carry no device uploads — the next merge round
// recomputes from whatever devices upload after the restart. A missing
// directory is a cold start, not an error.
func (s *Store) Restore(dir string) (int, error) {
	platforms, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	n := 0
	for _, p := range platforms {
		if !p.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, p.Name()))
		if err != nil {
			return n, err
		}
		for _, f := range files {
			if f.IsDir() || filepath.Ext(f.Name()) != ".json" {
				continue
			}
			// Rollout lifecycle state lives under SnapshotDir/rollout/
			// in its own format; the rollout manager restores it.
			if strings.HasSuffix(f.Name(), ".rollout.json") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, p.Name(), f.Name()))
			if err != nil {
				return n, err
			}
			app, set, _, err := core.UnmarshalTableSet(data)
			if err != nil {
				return n, fmt.Errorf("fleetd: restoring %s/%s: %w", p.Name(), f.Name(), err)
			}
			k := Key{App: app, Platform: p.Name()}
			// Names restored from disk must honor the same invariant
			// as uploads: a foreign or hand-edited snapshot file with
			// an unsafe embedded app name would otherwise create a
			// policy the API advertises but can never serve — and
			// escape the snapshot dir on the next Snapshot.
			if err := k.validate("fleetd"); err != nil {
				return n, fmt.Errorf("fleetd: restoring %s/%s: %w", p.Name(), f.Name(), err)
			}
			sh := s.shardFor(k)
			sh.mu.Lock()
			sh.entries[k] = &entry{
				pending: make(map[string]*learner.TableSet),
				devGen:  make(map[string]int64),
				pub:     s.publish(k.App, set),
				round:   1,
			}
			sh.mu.Unlock()
			n++
		}
	}
	return n, nil
}
