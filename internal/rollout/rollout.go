// Package rollout is fleetd's policy-lifecycle subsystem. Every merge
// round becomes a versioned, immutable policy artifact (monotonic
// per-key version, canonical content hash, learner identity, parent
// version) in a bounded version store; a staged rollout controller
// advances each candidate artifact through deterministic device
// cohorts (canary 1% → 10% → 100%, assignment by an arch-independent
// hash of the device ID); and an automatic rollback evaluator compares
// the canary cohort's measured QoS/energy against the control cohort
// and either promotes the candidate to stable or rolls its cohort back
// to the last-good artifact.
package rollout

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
)

// Cohort names used across status, reports and metrics.
const (
	CohortCanary  = "canary"
	CohortControl = "control"
	CohortStable  = "stable"
)

// Rollout state is driven by unauthenticated device traffic, so every
// axis a hostile client could grow is bounded, mirroring the fleetd
// store's posture: distinct policy keys, registered devices feeding
// the cohort floor, and per-key evaluation reports.
const (
	maxKeys              = 16384
	maxRegisteredDevices = 1 << 16
	maxReportsPerKey     = 1 << 16
)

// The staged-rollout policy is fixed (docs/operations.md, "Fixed
// limits").
const (
	// maxVersions bounds the per-key artifact history. The stable and
	// candidate artifacts are never evicted.
	maxVersions = 8
	// minCanary is the minimum number of registered devices the canary
	// cohort must cover: for fleets too small for 1% to reach any
	// device, the effective threshold widens to the minCanary
	// registered devices with the lowest buckets.
	minCanary = 1
	// minReports is how many evaluation reports each cohort needs
	// before Advance will judge the stage.
	minReports = 1
	// maxEnergyRegressPct rolls the candidate back when the canary
	// cohort's mean energy exceeds control's by more than this many
	// percent.
	maxEnergyRegressPct = 5.0
	// maxQoSDropPct rolls the candidate back when the canary cohort's
	// mean QoS (active-session FPS) falls short of control's by more
	// than this many percent.
	maxQoSDropPct = 5.0
)

// stages are the canary cohort sizes in basis points. Advancing into
// the final, full-fleet stage promotes the candidate to stable.
var stages = [...]uint32{100, 1000, CohortBasis}

// Config sets up a Manager. The zero value is the production setup.
type Config struct {
	// NowUS supplies artifact creation timestamps (nil → wall clock);
	// tests pin it for deterministic metadata.
	NowUS func() int64
}

// Artifact is one versioned, immutable policy: its metadata plus the
// table payload. Published artifacts are never mutated — consumers may
// share the reference (the same contract as the fleetd store's
// PolicySetRef).
type Artifact struct {
	core.ArtifactMeta
	Set *learner.TableSet
	// derived holds what the serving tier computes from Set once (see
	// Derived). Artifacts are copied by value, so it sits behind a
	// pointer: every copy of a submitted artifact shares it.
	derived *derivedValue
}

// derivedValue is an artifact's fill-once slot.
type derivedValue struct {
	once sync.Once
	v    any
}

// Derived returns the value fill computes from the artifact, calling
// fill at most once per artifact the Manager holds: Submit and Restore
// give each one a slot that every copy shares. fleetd keeps the
// artifact's encoded policy bodies here. An artifact that never went
// through a Manager has no slot, and fill runs on every call.
func (a *Artifact) Derived(fill func() any) any {
	d := a.derived
	if d == nil {
		return fill()
	}
	d.once.Do(func() { d.v = fill() })
	return d.v
}

// EvalReport is one device's measured evaluation of the policy version
// it ran: the energy and QoS of a deterministic scenario replay.
type EvalReport struct {
	Device string `json:"device"`
	// Version is the policy version the device ran (which cohort the
	// report counts toward is derived from it server-side).
	Version int64   `json:"version"`
	EnergyJ float64 `json:"energy_j"`
	// QoSFPS is the active-session mean FPS — the QoS users perceive.
	QoSFPS float64 `json:"qos_fps"`
	DurS   float64 `json:"dur_s"`
}

// CohortStats aggregates one cohort's evaluation reports.
type CohortStats struct {
	Cohort     string  `json:"cohort"`
	Devices    int     `json:"devices"`
	AvgEnergyJ float64 `json:"avg_energy_j"`
	AvgQoSFPS  float64 `json:"avg_qos_fps"`
}

// Status is one policy key's rollout state.
type Status struct {
	Key       string             `json:"key"`
	Stable    *core.ArtifactMeta `json:"stable,omitempty"`
	Candidate *core.ArtifactMeta `json:"candidate,omitempty"`
	// StageBps is the active stage's canary size; EffectiveBps widens
	// it to cover the canary cohort floor (both 0 when no rollout is
	// active).
	StageBps     uint32 `json:"stage_bps"`
	EffectiveBps uint32 `json:"effective_bps"`
	// CanaryReports / ControlReports count this stage's evaluation
	// reports by cohort.
	CanaryReports  int    `json:"canary_reports"`
	ControlReports int    `json:"control_reports"`
	Rollbacks      int64  `json:"rollbacks"`
	LastAction     string `json:"last_action,omitempty"`
	// Versions lists the retained artifact versions, ascending.
	Versions []int64 `json:"versions"`
}

// Decision is the outcome of one Advance (or admin Rollback): what the
// evaluator did and the cohort evidence it judged.
type Decision struct {
	// Action is "advance" (next stage), "promote" (candidate became
	// stable) or "rollback" (candidate dropped, fleet back on stable).
	Action  string      `json:"action"`
	Reason  string      `json:"reason"`
	Canary  CohortStats `json:"canary"`
	Control CohortStats `json:"control"`
	Status  Status      `json:"status"`
}

// keyState is one policy key's lifecycle state.
type keyState struct {
	artifacts []*Artifact // ascending version order
	stable    *Artifact
	candidate *Artifact
	// stageIdx indexes stages while candidate != nil.
	stageIdx    int
	reports     map[string]EvalReport
	rollbacks   int64
	lastAction  string
	nextVersion int64
}

// Manager is the rollout controller: an artifact version store plus
// the staged-cohort state machine, one instance per fleetd server.
type Manager struct {
	nowUS func() int64

	mu   sync.RWMutex
	keys map[string]*keyState
	// devices / bucketCount back the minCanary cohort floor: every
	// checked-in device registers its bucket, and floorBps is the
	// smallest threshold covering the minCanary lowest buckets.
	devices     map[string]struct{}
	bucketCount [CohortBasis]int32
	floorBps    uint32
}

// New builds a Manager.
func New(cfg Config) *Manager {
	now := cfg.NowUS
	if now == nil {
		now = func() int64 { return time.Now().UnixMicro() }
	}
	return &Manager{
		nowUS:   now,
		keys:    make(map[string]*keyState),
		devices: make(map[string]struct{}),
	}
}

// RegisterDevice records a device into the cohort floor accounting
// (idempotent; the set is bounded like fleetd's check-in tracking —
// past the cap the floor becomes a lower bound, which only widens the
// canary, never starves it).
func (m *Manager) RegisterDevice(device string) {
	if device == "" {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, seen := m.devices[device]; seen || len(m.devices) >= maxRegisteredDevices {
		return
	}
	m.devices[device] = struct{}{}
	m.bucketCount[Bucket(device)]++
	m.floorBps = m.computeFloor()
}

// computeFloor returns the smallest threshold in basis points whose
// buckets cover at least minCanary registered devices (0 when too few
// devices are registered to satisfy the floor at all). Callers hold
// the write lock.
func (m *Manager) computeFloor() uint32 {
	need := int32(minCanary)
	var seen int32
	for b := 0; b < CohortBasis; b++ {
		seen += m.bucketCount[b]
		if seen >= need {
			return uint32(b + 1)
		}
	}
	return 0
}

// effectiveBps is the active stage's canary threshold widened to the
// minCanary floor. Callers hold at least the read lock.
func (m *Manager) effectiveBps(e *keyState) uint32 {
	thr := stages[e.stageIdx]
	if m.floorBps > thr {
		thr = m.floorBps
	}
	if thr > CohortBasis {
		thr = CohortBasis
	}
	return thr
}

// Submit turns a merge round's output into the key's next artifact.
// The version store dedups by content hash: re-merging identical
// uploads returns the existing artifact instead of minting an empty
// version bump. The first artifact of a key promotes straight to
// stable (there is no control cohort to compare against); later
// submissions become (or replace) the candidate and restart staging at
// the first stage. A submission whose content equals the current
// stable cancels any in-flight candidate — the fleet has converged
// back to what it already runs.
func (m *Manager) Submit(key string, a Artifact) (Artifact, error) {
	if a.Set == nil || a.Set.Primary() == nil {
		return Artifact{}, fmt.Errorf("rollout: %s: empty artifact payload", key)
	}
	if a.Hash == "" {
		return Artifact{}, fmt.Errorf("rollout: %s: artifact has no content hash", key)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.keys[key]
	if e == nil {
		if len(m.keys) >= maxKeys {
			return Artifact{}, fmt.Errorf("rollout: policy-key limit reached (%d)", maxKeys)
		}
		e = &keyState{reports: make(map[string]EvalReport)}
		m.keys[key] = e
	}
	if e.candidate != nil && a.Hash == e.candidate.Hash {
		return *e.candidate, nil
	}
	if e.stable != nil && a.Hash == e.stable.Hash {
		if e.candidate != nil {
			e.candidate = nil
			e.stageIdx = 0
			e.lastAction = "superseded"
			clear(e.reports)
		}
		return *e.stable, nil
	}
	e.nextVersion++
	a.Version = e.nextVersion
	a.CreatedUS = m.nowUS()
	a.Parent = 0
	if e.stable != nil {
		a.Parent = e.stable.Version
	}
	a.derived = new(derivedValue)
	art := &a
	e.artifacts = append(e.artifacts, art)
	if e.stable == nil {
		e.stable = art
		e.lastAction = "bootstrap"
	} else {
		e.candidate = art
		e.stageIdx = 0
		e.lastAction = "submitted"
		clear(e.reports)
	}
	e.evict()
	return *art, nil
}

// evict trims the artifact history to maxVersions, oldest first, never
// dropping the stable or candidate artifact. Callers hold the write
// lock.
func (e *keyState) evict() {
	for len(e.artifacts) > maxVersions {
		dropped := false
		for i, a := range e.artifacts {
			if a == e.stable || a == e.candidate {
				continue
			}
			e.artifacts = append(e.artifacts[:i], e.artifacts[i+1:]...)
			dropped = true
			break
		}
		if !dropped {
			return
		}
	}
}

// Resolve answers "which policy does this device run": the candidate
// for canary-cohort devices while a rollout is active, the stable
// artifact otherwise. The empty device ID is the legacy unversioned
// client — it always resolves to stable, so unvetted candidates never
// reach clients that cannot report evaluations. The returned cohort is
// CohortCanary/CohortControl during an active rollout (CohortStable
// otherwise), and the artifact is shared and immutable.
func (m *Manager) Resolve(key, device string) (*Artifact, string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	e := m.keys[key]
	if e == nil || e.stable == nil {
		return nil, "", false
	}
	if e.candidate != nil && device != "" {
		if Bucket(device) < m.effectiveBps(e) {
			return e.candidate, CohortCanary, true
		}
		return e.stable, CohortControl, true
	}
	return e.stable, CohortStable, true
}

// Report records one device's evaluation of the version it ran. The
// report counts toward the canary cohort when the version is the
// active candidate's, control when it is the stable's; anything else
// is rejected — a stale report from two versions ago must not steer
// this rollout. Latest report per device wins.
func (m *Manager) Report(key string, rep EvalReport) (string, error) {
	if rep.Device == "" {
		return "", fmt.Errorf("rollout: %s: report without device ID", key)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.keys[key]
	if e == nil || e.candidate == nil {
		return "", fmt.Errorf("rollout: %s: no active rollout to report against", key)
	}
	switch rep.Version {
	case e.candidate.Version, e.stable.Version:
	default:
		return "", fmt.Errorf("rollout: %s: report for version %d (active: stable v%d, candidate v%d)",
			key, rep.Version, e.stable.Version, e.candidate.Version)
	}
	if _, seen := e.reports[rep.Device]; !seen && len(e.reports) >= maxReportsPerKey {
		return "", fmt.Errorf("rollout: %s: report limit reached (%d)", key, maxReportsPerKey)
	}
	e.reports[rep.Device] = rep
	if rep.Version == e.candidate.Version {
		return CohortCanary, nil
	}
	return CohortControl, nil
}

// cohortStats aggregates the stage's reports by cohort, iterating in
// sorted-device order so the floating-point sums are deterministic.
// Callers hold at least the read lock.
func (e *keyState) cohortStats() (canary, control CohortStats) {
	canary.Cohort, control.Cohort = CohortCanary, CohortControl
	if e.candidate == nil {
		return canary, control
	}
	devices := make([]string, 0, len(e.reports))
	for d := range e.reports {
		devices = append(devices, d)
	}
	sort.Strings(devices)
	for _, d := range devices {
		rep := e.reports[d]
		c := &control
		if rep.Version == e.candidate.Version {
			c = &canary
		}
		c.Devices++
		c.AvgEnergyJ += rep.EnergyJ
		c.AvgQoSFPS += rep.QoSFPS
	}
	for _, c := range []*CohortStats{&canary, &control} {
		if c.Devices > 0 {
			c.AvgEnergyJ /= float64(c.Devices)
			c.AvgQoSFPS /= float64(c.Devices)
		}
	}
	return canary, control
}

// Advance judges the active stage: with enough reports on both sides,
// a canary cohort whose energy or QoS regresses past the configured
// thresholds triggers an automatic rollback to the last-good artifact;
// otherwise the rollout advances to the next stage, and advancing into
// the final (full-fleet) stage promotes the candidate to stable. Each
// judged stage starts the next one with a clean report slate.
func (m *Manager) Advance(key string) (Decision, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.keys[key]
	if e == nil || e.candidate == nil {
		return Decision{}, fmt.Errorf("rollout: %s: no active rollout", key)
	}
	canary, control := e.cohortStats()
	if canary.Devices < minReports || control.Devices < minReports {
		return Decision{}, fmt.Errorf("rollout: %s: need %d reports per cohort, have canary %d / control %d",
			key, minReports, canary.Devices, control.Devices)
	}
	d := Decision{Canary: canary, Control: control}
	switch {
	case control.AvgEnergyJ > 0 && canary.AvgEnergyJ > control.AvgEnergyJ*(1+maxEnergyRegressPct/100):
		d.Action = "rollback"
		d.Reason = fmt.Sprintf("canary energy %.2f J exceeds control %.2f J by more than %.1f%%",
			canary.AvgEnergyJ, control.AvgEnergyJ, maxEnergyRegressPct)
		m.rollbackLocked(e)
	case control.AvgQoSFPS > 0 && canary.AvgQoSFPS < control.AvgQoSFPS*(1-maxQoSDropPct/100):
		d.Action = "rollback"
		d.Reason = fmt.Sprintf("canary QoS %.2f fps falls short of control %.2f fps by more than %.1f%%",
			canary.AvgQoSFPS, control.AvgQoSFPS, maxQoSDropPct)
		m.rollbackLocked(e)
	case e.stageIdx+1 >= len(stages)-1:
		// The next stage is the full fleet: promotion, not another canary.
		d.Action = "promote"
		d.Reason = fmt.Sprintf("candidate v%d healthy through %d bps; promoted to stable", e.candidate.Version, stages[e.stageIdx])
		e.stable = e.candidate
		e.candidate = nil
		e.stageIdx = 0
		e.lastAction = "promote"
		clear(e.reports)
	default:
		e.stageIdx++
		d.Action = "advance"
		d.Reason = fmt.Sprintf("candidate v%d healthy at %d bps; advancing to %d bps",
			e.candidate.Version, stages[e.stageIdx-1], stages[e.stageIdx])
		e.lastAction = "advance"
		clear(e.reports)
	}
	d.Status = m.statusLocked(key, e)
	return d, nil
}

// Rollback is the admin override: drop the candidate immediately and
// return the fleet to the stable artifact, regardless of reports.
func (m *Manager) Rollback(key string) (Decision, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.keys[key]
	if e == nil || e.candidate == nil {
		return Decision{}, fmt.Errorf("rollout: %s: no active rollout", key)
	}
	canary, control := e.cohortStats()
	d := Decision{Action: "rollback", Reason: "operator rollback", Canary: canary, Control: control}
	m.rollbackLocked(e)
	d.Status = m.statusLocked(key, e)
	return d, nil
}

// rollbackLocked drops the candidate: canary devices resolve back to
// the stable (last-good) artifact on their next policy pull. The
// candidate's artifact stays in the version history for post-mortems
// until evicted. Callers hold the write lock.
func (m *Manager) rollbackLocked(e *keyState) {
	e.candidate = nil
	e.stageIdx = 0
	e.rollbacks++
	e.lastAction = "rollback"
	clear(e.reports)
}

// Status reports one key's rollout state.
func (m *Manager) Status(key string) (Status, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	e := m.keys[key]
	if e == nil {
		return Status{}, false
	}
	return m.statusLocked(key, e), true
}

// Statuses lists every key's status in sorted key order.
func (m *Manager) Statuses() []Status {
	m.mu.RLock()
	defer m.mu.RUnlock()
	keys := make([]string, 0, len(m.keys))
	for k := range m.keys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Status, len(keys))
	for i, k := range keys {
		out[i] = m.statusLocked(k, m.keys[k])
	}
	return out
}

// statusLocked builds a Status. Callers hold at least the read lock.
func (m *Manager) statusLocked(key string, e *keyState) Status {
	st := Status{Key: key, Rollbacks: e.rollbacks, LastAction: e.lastAction}
	if e.stable != nil {
		meta := e.stable.ArtifactMeta
		st.Stable = &meta
	}
	if e.candidate != nil {
		meta := e.candidate.ArtifactMeta
		st.Candidate = &meta
		st.StageBps = stages[e.stageIdx]
		st.EffectiveBps = m.effectiveBps(e)
		canary, control := e.cohortStats()
		st.CanaryReports = canary.Devices
		st.ControlReports = control.Devices
	}
	st.Versions = make([]int64, len(e.artifacts))
	for i, a := range e.artifacts {
		st.Versions[i] = a.Version
	}
	return st
}

// RollbacksTotal sums rollbacks across every key (the /metrics
// counter).
func (m *Manager) RollbacksTotal() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var n int64
	for _, e := range m.keys {
		n += e.rollbacks
	}
	return n
}
