package fleetd

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nextdvfs/internal/rollout"
)

// mergeRingSize is the window behind the merge-latency quantiles: the
// last 256 rounds, enough to smooth a burst without letting ancient
// rounds dominate after a traffic shift.
const mergeRingSize = 256

// Metrics is the server's instrumentation: the shared per-endpoint
// request layer plus a merge-latency summary, all lock-free atomics on
// the hot path.
type Metrics struct {
	*RequestMetrics

	mergeCount atomic.Int64
	mergeSumUS atomic.Int64
	mergeMaxUS atomic.Int64

	// mergeRing holds recent merge latencies for the exposition's named
	// quantiles. A plain mutex is fine here: merge rounds are orders of
	// magnitude rarer than check-ins, so this never sits on the serving
	// hot path.
	mergeMu    sync.Mutex
	mergeRing  [mergeRingSize]int64
	mergeRingN int64

	// mint* summarize the artifact mint of rollout servers' merge
	// rounds: the content hash and the rollout Submit.
	mintCount atomic.Int64
	mintSumUS atomic.Int64
	mintMaxUS atomic.Int64

	snapshots atomic.Int64
	restored  atomic.Int64
	// deltaConflicts counts delta uploads answered 409.
	deltaConflicts atomic.Int64
}

func (m *Metrics) snapshotWritten() { m.snapshots.Add(1) }

// observeMerge records one merge round's latency.
func (m *Metrics) observeMerge(d time.Duration) {
	us := d.Microseconds()
	m.mergeCount.Add(1)
	m.mergeSumUS.Add(us)
	m.mergeMu.Lock()
	m.mergeRing[m.mergeRingN%mergeRingSize] = us
	m.mergeRingN++
	m.mergeMu.Unlock()
	storeMax(&m.mergeMaxUS, us)
}

// observeMint records one artifact mint's latency.
func (m *Metrics) observeMint(d time.Duration) {
	us := d.Microseconds()
	m.mintCount.Add(1)
	m.mintSumUS.Add(us)
	storeMax(&m.mintMaxUS, us)
}

// storeMax raises a to v if v is larger.
func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// mergeQuantiles returns the named latency quantiles (nearest-rank)
// over the ring window, or nil before the first merge round.
func (m *Metrics) mergeQuantiles(qs ...float64) []int64 {
	m.mergeMu.Lock()
	n := m.mergeRingN
	if n > mergeRingSize {
		n = mergeRingSize
	}
	window := make([]int64, n)
	copy(window, m.mergeRing[:n])
	m.mergeMu.Unlock()
	if len(window) == 0 {
		return nil
	}
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	out := make([]int64, len(qs))
	for i, q := range qs {
		out[i] = window[int(q*float64(len(window)-1)+0.5)]
	}
	return out
}

// MergeLatency reports the merge-round latency summary.
func (m *Metrics) MergeLatency() (count, sumUS, maxUS int64) {
	return m.mergeCount.Load(), m.mergeSumUS.Load(), m.mergeMaxUS.Load()
}

// write renders the Prometheus text exposition. The store is read
// here, so the metrics page reflects the live table store.
func (m *Metrics) write(w io.Writer, st *Store, devices, untracked int) {
	keys, merged, uploads := st.Stats()
	m.RequestMetrics.Write(w)

	count, sumUS, maxUS := m.MergeLatency()
	var latency []any
	if qs := m.mergeQuantiles(0.5, 0.9, 0.99); qs != nil {
		latency = append(latency, `{quantile="0.5"}`, qs[0], `{quantile="0.9"}`, qs[1], `{quantile="0.99"}`, qs[2])
	}
	latency = append(latency, "_count", count, "_sum", sumUS, "_max", maxUS)
	WriteFamily(w, "fleetd_merge_latency_us", "summary",
		fmt.Sprintf("Federated merge round latency in microseconds (quantiles over the last %d rounds; count/sum/max over the server lifetime).", mergeRingSize),
		latency...)
	WriteFamily(w, "fleetd_merges_total", "counter",
		"Merge rounds; each recomputes the states uploads dirtied since the round before, new devices' states included.",
		"", st.merges.Load())
	WriteFamily(w, "fleetd_delta_conflicts_total", "counter",
		"Delta uploads answered 409 because the store held no base at the echoed generation; each device falls back to a full upload.",
		"", m.deltaConflicts.Load())

	WriteFamily(w, "fleetd_policies", "gauge", "Known app-platform policies (merged = with a served table).",
		`{state="known"}`, keys, `{state="merged"}`, merged)
	WriteFamily(w, "fleetd_policy_encodes_total", "counter",
		"Policy bodies encoded for serving, by encoding: one per published policy and encoding, not one per pull.",
		`{encoding="binary"}`, st.encodes[encBinary].Load(), `{encoding="json"}`, st.encodes[encJSON].Load())
	WriteFamily(w, "fleetd_device_tables", "gauge", "Device tables currently held for merging.", "", uploads)
	WriteFamily(w, "fleetd_devices_seen", "gauge",
		"Distinct devices that have checked in (lower bound once the tracking set is full).", "", devices)
	WriteFamily(w, "fleetd_untracked_checkins_total", "counter",
		"Check-ins from devices not in the bounded tracking set.", "", untracked)
	WriteFamily(w, "fleetd_snapshots_total", "counter",
		"Merged tables written to the snapshot directory.", "", m.snapshots.Load())
	WriteFamily(w, "fleetd_restored_tables", "gauge",
		"Policies warm-started from a snapshot at boot.", "", m.restored.Load())
}

// writeRollout renders the policy-lifecycle gauges and the artifact
// mint latency. Emitted only on rollout-enabled servers, so the default
// exposition is unchanged.
func (m *Metrics) writeRollout(w io.Writer, statuses []rollout.Status, rollbacksTotal int64) {
	WriteFamily(w, "fleetd_artifact_mint_latency_us", "summary",
		"Policy artifact mint latency in microseconds: the merge output's content hash and the rollout submit, after the merge round (count/sum/max over the server lifetime).",
		"_count", m.mintCount.Load(), "_sum", m.mintSumUS.Load(), "_max", m.mintMaxUS.Load())
	var versions, stages, reports []any
	for _, st := range statuses {
		if st.Stable != nil {
			versions = append(versions, fmt.Sprintf(`{policy=%q,state="stable"}`, st.Key), st.Stable.Version)
		}
		if st.Candidate != nil {
			versions = append(versions, fmt.Sprintf(`{policy=%q,state="candidate"}`, st.Key), st.Candidate.Version)
		}
		stages = append(stages,
			fmt.Sprintf(`{policy=%q,kind="stage"}`, st.Key), st.StageBps,
			fmt.Sprintf(`{policy=%q,kind="effective"}`, st.Key), st.EffectiveBps)
		reports = append(reports,
			fmt.Sprintf(`{policy=%q,cohort="canary"}`, st.Key), st.CanaryReports,
			fmt.Sprintf(`{policy=%q,cohort="control"}`, st.Key), st.ControlReports)
	}
	WriteFamily(w, "fleetd_rollout_version", "gauge",
		"Current policy artifact version, by policy and lifecycle state.", versions...)
	WriteFamily(w, "fleetd_rollout_stage_bps", "gauge",
		"Active canary stage size in basis points (0 = no active rollout); effective widens to the MinCanary floor.", stages...)
	WriteFamily(w, "fleetd_rollout_cohort_reports", "gauge",
		"Evaluation reports collected this stage, by policy and cohort.", reports...)
	WriteFamily(w, "fleetd_rollout_rollbacks_total", "counter",
		"Automatic and operator policy rollbacks since start.", "", rollbacksTotal)
}
