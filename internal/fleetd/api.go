package fleetd

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// This file is the request layer both fleet servers (the root here and
// the edge tier in internal/aggregator) share: the JSON reply and error
// envelope, and per-endpoint request accounting for /metrics.

// apiError is the JSON error envelope every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

// WriteJSON answers with status and v as the JSON body, returning the
// status for HandlerFunc.
func WriteJSON(w http.ResponseWriter, status int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
	return status
}

// WriteBody answers 200 with a prebuilt body, such as a cached policy
// encoding, returning the status for HandlerFunc.
func WriteBody(w http.ResponseWriter, contentType string, body []byte) int {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
	return http.StatusOK
}

// WriteErr answers with status and the {"error": "..."} envelope that
// Client decodes.
func WriteErr(w http.ResponseWriter, status int, err error) int {
	return WriteJSON(w, status, apiError{Error: err.Error()})
}

// HandlerFunc is an endpoint handler that returns the HTTP status it
// answered, so RequestMetrics can count errors.
type HandlerFunc func(w http.ResponseWriter, r *http.Request) int

// RequestMetrics counts requests and error answers per endpoint label
// and keeps the uptime clock. The counters are lock-free atomics
// resolved when a route is registered, so a request pays two atomic
// adds at most.
type RequestMetrics struct {
	prefix, subject string
	start           time.Time
	endpoints       []*endpointCounters // in first-registration order
}

type endpointCounters struct {
	label            string
	requests, errors atomic.Int64
}

// NewRequestMetrics starts the uptime clock. prefix names the metric
// families (<prefix>_requests_total, ...); subject names the process
// in the uptime help text.
func NewRequestMetrics(prefix, subject string) *RequestMetrics {
	return &RequestMetrics{prefix: prefix, subject: subject, start: time.Now()}
}

// Handle wraps h with the counters for label. Register every route
// before serving: labels are listed in the order first registered,
// and several routes may share one label.
func (m *RequestMetrics) Handle(label string, h HandlerFunc) http.HandlerFunc {
	var c *endpointCounters
	for _, e := range m.endpoints {
		if e.label == label {
			c = e
			break
		}
	}
	if c == nil {
		c = &endpointCounters{label: label}
		m.endpoints = append(m.endpoints, c)
	}
	return func(w http.ResponseWriter, r *http.Request) {
		c.requests.Add(1)
		if h(w, r) >= 400 {
			c.errors.Add(1)
		}
	}
}

// Requests returns the total request count across endpoints.
func (m *RequestMetrics) Requests() int64 {
	var n int64
	for _, e := range m.endpoints {
		n += e.requests.Load()
	}
	return n
}

// Uptime is the time since NewRequestMetrics.
func (m *RequestMetrics) Uptime() time.Duration { return time.Since(m.start) }

// Write renders the uptime, request and request-error blocks of the
// Prometheus text exposition.
func (m *RequestMetrics) Write(w io.Writer) {
	WriteFamily(w, m.prefix+"_uptime_seconds", "gauge", "Seconds since the "+m.subject+" started.",
		"", fmt.Sprintf("%.3f", m.Uptime().Seconds()))
	var requests, errs []any
	for _, e := range m.endpoints {
		series := fmt.Sprintf("{endpoint=%q}", e.label)
		requests = append(requests, series, e.requests.Load())
		errs = append(errs, series, e.errors.Load())
	}
	WriteFamily(w, m.prefix+"_requests_total", "counter", "Requests served, by endpoint.", requests...)
	WriteFamily(w, m.prefix+"_request_errors_total", "counter", "Requests answered with an error status, by endpoint.", errs...)
}

// WriteFamily renders one metric family of the Prometheus text
// exposition: its HELP and TYPE lines, then one sample line per pair
// in samples. A pair is a series — what follows the family name: a
// label set such as {state="known"}, a suffix such as _count, or "" —
// and its value, written with %v. Both fleet servers write every
// family of their /metrics page through it.
func WriteFamily(w io.Writer, name, typ, help string, samples ...any) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for i := 0; i+1 < len(samples); i += 2 {
		fmt.Fprintf(w, "%s%s %v\n", name, samples[i], samples[i+1])
	}
}
