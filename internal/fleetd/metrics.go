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
	for {
		cur := m.mergeMaxUS.Load()
		if us <= cur || m.mergeMaxUS.CompareAndSwap(cur, us) {
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
	fmt.Fprintf(w, "# HELP fleetd_merge_latency_us Federated merge round latency in microseconds (quantiles over the last %d rounds; count/sum/max over the server lifetime).\n", mergeRingSize)
	fmt.Fprintf(w, "# TYPE fleetd_merge_latency_us summary\n")
	if qs := m.mergeQuantiles(0.5, 0.9, 0.99); qs != nil {
		fmt.Fprintf(w, "fleetd_merge_latency_us{quantile=\"0.5\"} %d\n", qs[0])
		fmt.Fprintf(w, "fleetd_merge_latency_us{quantile=\"0.9\"} %d\n", qs[1])
		fmt.Fprintf(w, "fleetd_merge_latency_us{quantile=\"0.99\"} %d\n", qs[2])
	}
	fmt.Fprintf(w, "fleetd_merge_latency_us_count %d\n", count)
	fmt.Fprintf(w, "fleetd_merge_latency_us_sum %d\n", sumUS)
	fmt.Fprintf(w, "fleetd_merge_latency_us_max %d\n", maxUS)
	fmt.Fprintf(w, "# HELP fleetd_merges_total Merge rounds by path: incremental recomputes the states uploads dirtied, rebuild re-joins every table after new devices joined.\n")
	fmt.Fprintf(w, "# TYPE fleetd_merges_total counter\n")
	fmt.Fprintf(w, "fleetd_merges_total{path=\"incremental\"} %d\n", st.merges[mergeIncremental].Load())
	fmt.Fprintf(w, "fleetd_merges_total{path=\"rebuild\"} %d\n", st.merges[mergeRebuild].Load())
	fmt.Fprintf(w, "# HELP fleetd_delta_conflicts_total Delta uploads answered 409 because the store held no base at the echoed generation; each device falls back to a full upload.\n")
	fmt.Fprintf(w, "# TYPE fleetd_delta_conflicts_total counter\n")
	fmt.Fprintf(w, "fleetd_delta_conflicts_total %d\n", m.deltaConflicts.Load())

	fmt.Fprintf(w, "# HELP fleetd_policies Known app-platform policies (merged = with a served table).\n")
	fmt.Fprintf(w, "# TYPE fleetd_policies gauge\n")
	fmt.Fprintf(w, "fleetd_policies{state=\"known\"} %d\n", keys)
	fmt.Fprintf(w, "fleetd_policies{state=\"merged\"} %d\n", merged)
	fmt.Fprintf(w, "# HELP fleetd_policy_encodes_total Policy bodies encoded for serving, by encoding: one per published policy and encoding, not one per pull.\n")
	fmt.Fprintf(w, "# TYPE fleetd_policy_encodes_total counter\n")
	fmt.Fprintf(w, "fleetd_policy_encodes_total{encoding=\"binary\"} %d\n", st.encodes[encBinary].Load())
	fmt.Fprintf(w, "fleetd_policy_encodes_total{encoding=\"json\"} %d\n", st.encodes[encJSON].Load())
	fmt.Fprintf(w, "# HELP fleetd_device_tables Device tables currently held for merging.\n")
	fmt.Fprintf(w, "# TYPE fleetd_device_tables gauge\n")
	fmt.Fprintf(w, "fleetd_device_tables %d\n", uploads)
	fmt.Fprintf(w, "# HELP fleetd_devices_seen Distinct devices that have checked in (lower bound once the tracking set is full).\n")
	fmt.Fprintf(w, "# TYPE fleetd_devices_seen gauge\n")
	fmt.Fprintf(w, "fleetd_devices_seen %d\n", devices)
	fmt.Fprintf(w, "# HELP fleetd_untracked_checkins_total Check-ins from devices not in the bounded tracking set.\n")
	fmt.Fprintf(w, "# TYPE fleetd_untracked_checkins_total counter\n")
	fmt.Fprintf(w, "fleetd_untracked_checkins_total %d\n", untracked)
	fmt.Fprintf(w, "# HELP fleetd_snapshots_total Merged tables written to the snapshot directory.\n")
	fmt.Fprintf(w, "# TYPE fleetd_snapshots_total counter\n")
	fmt.Fprintf(w, "fleetd_snapshots_total %d\n", m.snapshots.Load())
	fmt.Fprintf(w, "# HELP fleetd_restored_tables Policies warm-started from a snapshot at boot.\n")
	fmt.Fprintf(w, "# TYPE fleetd_restored_tables gauge\n")
	fmt.Fprintf(w, "fleetd_restored_tables %d\n", m.restored.Load())
}

// writeRolloutMetrics renders the policy-lifecycle gauges. Emitted only
// on rollout-enabled servers, so the default exposition is unchanged.
func writeRolloutMetrics(w io.Writer, statuses []rollout.Status, rollbacksTotal int64) {
	fmt.Fprintf(w, "# HELP fleetd_rollout_version Current policy artifact version, by policy and lifecycle state.\n")
	fmt.Fprintf(w, "# TYPE fleetd_rollout_version gauge\n")
	for _, st := range statuses {
		if st.Stable != nil {
			fmt.Fprintf(w, "fleetd_rollout_version{policy=%q,state=\"stable\"} %d\n", st.Key, st.Stable.Version)
		}
		if st.Candidate != nil {
			fmt.Fprintf(w, "fleetd_rollout_version{policy=%q,state=\"candidate\"} %d\n", st.Key, st.Candidate.Version)
		}
	}
	fmt.Fprintf(w, "# HELP fleetd_rollout_stage_bps Active canary stage size in basis points (0 = no active rollout); effective widens to the MinCanary floor.\n")
	fmt.Fprintf(w, "# TYPE fleetd_rollout_stage_bps gauge\n")
	for _, st := range statuses {
		fmt.Fprintf(w, "fleetd_rollout_stage_bps{policy=%q,kind=\"stage\"} %d\n", st.Key, st.StageBps)
		fmt.Fprintf(w, "fleetd_rollout_stage_bps{policy=%q,kind=\"effective\"} %d\n", st.Key, st.EffectiveBps)
	}
	fmt.Fprintf(w, "# HELP fleetd_rollout_cohort_reports Evaluation reports collected this stage, by policy and cohort.\n")
	fmt.Fprintf(w, "# TYPE fleetd_rollout_cohort_reports gauge\n")
	for _, st := range statuses {
		fmt.Fprintf(w, "fleetd_rollout_cohort_reports{policy=%q,cohort=\"canary\"} %d\n", st.Key, st.CanaryReports)
		fmt.Fprintf(w, "fleetd_rollout_cohort_reports{policy=%q,cohort=\"control\"} %d\n", st.Key, st.ControlReports)
	}
	fmt.Fprintf(w, "# HELP fleetd_rollout_rollbacks_total Automatic and operator policy rollbacks since start.\n")
	fmt.Fprintf(w, "# TYPE fleetd_rollout_rollbacks_total counter\n")
	fmt.Fprintf(w, "fleetd_rollout_rollbacks_total %d\n", rollbacksTotal)
}
