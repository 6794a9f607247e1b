package aggregator

import (
	"fmt"
	"io"
	"sync/atomic"

	"nextdvfs/internal/fleetd"
)

// Metrics is the edge aggregator's instrumentation: the shared
// per-endpoint request layer plus the federation-pipeline counters
// every backpressure question starts from (see docs/operations.md for
// the reference table).
type Metrics struct {
	*fleetd.RequestMetrics

	// rejected counts uploads answered 429 because the upward queue was
	// full — the hard backpressure signal.
	rejected atomic.Int64
	// forwarded counts device tables the root accepted; dropped counts
	// tables the root rejected (and the aggregator discarded).
	forwarded atomic.Int64
	dropped   atomic.Int64
	// flushes / flushFailures count federation pushes by outcome; a
	// failed push requeues its batch.
	flushes       atomic.Int64
	flushFailures atomic.Int64
	// proxied / proxyFallbacks count policy downloads answered by the
	// root versus served from the local merged table because the root
	// was unreachable or had no policy yet.
	proxied        atomic.Int64
	proxyFallbacks atomic.Int64
}

// Rejected returns how many uploads were answered 429 (queue full).
func (m *Metrics) Rejected() int64 { return m.rejected.Load() }

// write renders the Prometheus text exposition. Queue and store gauges
// are passed in so the page reflects live state.
func (m *Metrics) write(w io.Writer, pending, queueLimit, keys, merged, uploads, devices int) {
	m.RequestMetrics.Write(w)

	fmt.Fprintf(w, "# HELP agg_pending_uploads Device tables queued for upward federation.\n")
	fmt.Fprintf(w, "# TYPE agg_pending_uploads gauge\n")
	fmt.Fprintf(w, "agg_pending_uploads %d\n", pending)
	fmt.Fprintf(w, "# HELP agg_queue_limit Upward queue capacity (distinct policy-device pairs).\n")
	fmt.Fprintf(w, "# TYPE agg_queue_limit gauge\n")
	fmt.Fprintf(w, "agg_queue_limit %d\n", queueLimit)
	fmt.Fprintf(w, "# HELP agg_rejected_uploads_total Uploads answered 429 because the upward queue was full.\n")
	fmt.Fprintf(w, "# TYPE agg_rejected_uploads_total counter\n")
	fmt.Fprintf(w, "agg_rejected_uploads_total %d\n", m.rejected.Load())
	fmt.Fprintf(w, "# HELP agg_forwarded_tables_total Device tables the root accepted via federation pushes.\n")
	fmt.Fprintf(w, "# TYPE agg_forwarded_tables_total counter\n")
	fmt.Fprintf(w, "agg_forwarded_tables_total %d\n", m.forwarded.Load())
	fmt.Fprintf(w, "# HELP agg_dropped_tables_total Device tables the root rejected and the aggregator discarded.\n")
	fmt.Fprintf(w, "# TYPE agg_dropped_tables_total counter\n")
	fmt.Fprintf(w, "agg_dropped_tables_total %d\n", m.dropped.Load())
	fmt.Fprintf(w, "# HELP agg_flush_total Federation pushes to the root, by outcome.\n")
	fmt.Fprintf(w, "# TYPE agg_flush_total counter\n")
	fmt.Fprintf(w, "agg_flush_total{result=\"ok\"} %d\n", m.flushes.Load())
	fmt.Fprintf(w, "agg_flush_total{result=\"error\"} %d\n", m.flushFailures.Load())
	fmt.Fprintf(w, "# HELP agg_policy_proxied_total Policy downloads answered by the root through the proxy.\n")
	fmt.Fprintf(w, "# TYPE agg_policy_proxied_total counter\n")
	fmt.Fprintf(w, "agg_policy_proxied_total %d\n", m.proxied.Load())
	fmt.Fprintf(w, "# HELP agg_policy_local_fallback_total Policy downloads served from the local merged table (root unreachable or without a policy).\n")
	fmt.Fprintf(w, "# TYPE agg_policy_local_fallback_total counter\n")
	fmt.Fprintf(w, "agg_policy_local_fallback_total %d\n", m.proxyFallbacks.Load())

	fmt.Fprintf(w, "# HELP agg_policies Known app-platform policies in the local store (merged = with a local table).\n")
	fmt.Fprintf(w, "# TYPE agg_policies gauge\n")
	fmt.Fprintf(w, "agg_policies{state=\"known\"} %d\n", keys)
	fmt.Fprintf(w, "agg_policies{state=\"merged\"} %d\n", merged)
	fmt.Fprintf(w, "# HELP agg_device_tables Device tables held in the local store.\n")
	fmt.Fprintf(w, "# TYPE agg_device_tables gauge\n")
	fmt.Fprintf(w, "agg_device_tables %d\n", uploads)
	fmt.Fprintf(w, "# HELP agg_devices_seen Distinct devices that have checked in at this edge.\n")
	fmt.Fprintf(w, "# TYPE agg_devices_seen gauge\n")
	fmt.Fprintf(w, "agg_devices_seen %d\n", devices)
}
