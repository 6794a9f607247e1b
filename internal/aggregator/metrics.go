package aggregator

import (
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

	fleetd.WriteFamily(w, "agg_pending_uploads", "gauge", "Device tables queued for upward federation.", "", pending)
	fleetd.WriteFamily(w, "agg_queue_limit", "gauge", "Upward queue capacity (distinct policy-device pairs).", "", queueLimit)
	fleetd.WriteFamily(w, "agg_rejected_uploads_total", "counter",
		"Uploads answered 429 because the upward queue was full.", "", m.rejected.Load())
	fleetd.WriteFamily(w, "agg_forwarded_tables_total", "counter",
		"Device tables the root accepted via federation pushes.", "", m.forwarded.Load())
	fleetd.WriteFamily(w, "agg_dropped_tables_total", "counter",
		"Device tables the root rejected and the aggregator discarded.", "", m.dropped.Load())
	fleetd.WriteFamily(w, "agg_flush_total", "counter", "Federation pushes to the root, by outcome.",
		`{result="ok"}`, m.flushes.Load(), `{result="error"}`, m.flushFailures.Load())
	fleetd.WriteFamily(w, "agg_policy_proxied_total", "counter",
		"Policy downloads answered by the root through the proxy.", "", m.proxied.Load())
	fleetd.WriteFamily(w, "agg_policy_local_fallback_total", "counter",
		"Policy downloads served from the local merged table (root unreachable or without a policy).", "", m.proxyFallbacks.Load())

	fleetd.WriteFamily(w, "agg_policies", "gauge",
		"Known app-platform policies in the local store (merged = with a local table).",
		`{state="known"}`, keys, `{state="merged"}`, merged)
	fleetd.WriteFamily(w, "agg_device_tables", "gauge", "Device tables held in the local store.", "", uploads)
	fleetd.WriteFamily(w, "agg_devices_seen", "gauge", "Distinct devices that have checked in at this edge.", "", devices)
}
