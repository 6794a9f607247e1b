// Package aggregator implements the edge tier of the hierarchical
// fleet: an aggregator sits between devices and the root fleetd,
// absorbing check-ins and table uploads into a per-aggregator local
// store, serving regional policies, and federating the raw per-device
// tables upward to the root in batched, bounded, async pushes.
//
// The tier is a doppel-style coordinator/worker decomposition:
// aggregators are the workers (writes land in per-worker local
// stores), the root is the coordinator, and a federation epoch runs
// split → local-merge → federated-join phases so no lock — and no
// single process — spans a whole round. Aggregators forward raw
// device tables, never regional pre-averages: pre-averaging would
// reassociate the merge's floating-point sums, and the repo pins the
// root merge byte-identical to a flat single-tier merge of the same
// uploads (see cloud.JoinDevices).
//
// Backpressure is explicit: the upward queue is hard-bounded, a full
// queue answers 429 with Retry-After (surfaced to clients as
// fleetd.RetryAfterError), and replies start carrying an advisory
// backoff once the queue passes a soft watermark.
package aggregator

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"nextdvfs/internal/core"
	"nextdvfs/internal/fleetd"
)

// Backpressure and federation batching (docs/operations.md, "Fixed
// limits").
const (
	// softLimitPct is the queue fill percentage from which upload
	// replies carry an advisory backoff hint.
	softLimitPct = 75
	// retryAfterS is the delay, in seconds, advertised on queue-overflow
	// rejections and as the advisory backoff.
	retryAfterS = 1
	// flushBatch caps device tables per federation push.
	flushBatch = 256
)

// Config tunes an edge aggregator.
type Config struct {
	// ID names this aggregator in federation pushes and metrics (a
	// single [a-zA-Z0-9._-] segment; "" → "edge").
	ID string
	// Root is the root fleetd base URL. Empty runs the aggregator
	// standalone: devices get local merges and no upward federation.
	Root string
	// QueueLimit bounds distinct (policy, device) pairs awaiting upward
	// federation (0 → 4096). Past it, uploads are rejected with 429 +
	// Retry-After until a flush drains the queue.
	QueueLimit int
	// FlushEvery is the background flush cadence (0 → 500ms; < 0
	// disables the background flusher — flushes then run only via
	// Flush, POST /v1/flush, or an epoch coordinator).
	FlushEvery time.Duration
	// MaxDevicesPerKey bounds distinct devices per policy in the local
	// store (0 → the fleetd store default of 4096).
	MaxDevicesPerKey int
}

// Server is one edge aggregator: an http.Handler speaking the same
// device-facing API subset as fleetd, over a local store and a bounded
// upward federation queue.
type Server struct {
	cfg     Config
	store   *fleetd.Store
	root    *fleetd.Client // nil when standalone
	proxy   *http.Client
	rootURL string
	queue   *queue
	metrics *Metrics
	door    *fleetd.FrontDoor
	mux     *http.ServeMux

	// pending holds devices checked in since the last successful flush.
	pending fleetd.DeviceSet

	flushMu sync.Mutex // serializes Flush (handlers never hold it)

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New builds an aggregator. Call Start to run the background flusher
// (when enabled), and Close to stop it.
func New(cfg Config) (*Server, error) {
	if cfg.ID == "" {
		cfg.ID = "edge"
	}
	if !fleetd.SafeName(cfg.ID) {
		return nil, fmt.Errorf("aggregator: bad ID %q (want a single [a-zA-Z0-9._-] segment)", cfg.ID)
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 4096
	}
	if cfg.FlushEvery == 0 {
		cfg.FlushEvery = 500 * time.Millisecond
	}
	s := &Server{
		cfg:     cfg,
		store:   fleetd.NewStoreMaxDevices(cfg.MaxDevicesPerKey),
		queue:   newQueue(cfg.QueueLimit),
		metrics: &Metrics{RequestMetrics: fleetd.NewRequestMetrics("agg", "aggregator")},
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	var register func(string)
	if cfg.Root != "" {
		s.rootURL = cfg.Root
		s.root = fleetd.NewClient(cfg.Root)
		s.proxy = &http.Client{Timeout: 10 * time.Second}
		// Registration rides the next flush so the root's device set and
		// rollout cohorts cover the whole fleet, not the aggregators.
		register = s.pending.Add
	}
	s.door = fleetd.NewFrontDoor("aggregator", s.store, register)
	mux := http.NewServeMux()
	m := s.metrics
	mux.HandleFunc("POST /v1/checkin", m.Handle("checkin", s.door.HandleCheckin))
	mux.HandleFunc("PUT /v1/table", m.Handle("upload", s.handleUpload))
	mux.HandleFunc("POST /v1/merge", m.Handle("merge", s.handleMerge))
	mux.HandleFunc("GET /v1/policy", m.Handle("policy", s.handlePolicy))
	mux.HandleFunc("GET /v1/apps", m.Handle("apps", s.door.HandleApps))
	mux.HandleFunc("POST /v1/flush", m.Handle("flush", s.handleFlush))
	mux.HandleFunc("GET /healthz", m.Handle("healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", m.Handle("metrics", s.handleMetrics))
	s.mux = mux
	return s, nil
}

// ID returns the aggregator's name.
func (s *Server) ID() string { return s.cfg.ID }

// Handler returns the device-facing http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Store exposes the local table store (in-process callers, tests).
func (s *Server) Store() *fleetd.Store { return s.store }

// Metrics exposes the aggregator's instrumentation.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Pending reports how many device tables await upward federation.
func (s *Server) Pending() int { return s.queue.depth() }

// Start launches the background flusher (a no-op when federation or
// the cadence is disabled).
func (s *Server) Start() {
	if s.root == nil || s.cfg.FlushEvery < 0 {
		close(s.done)
		return
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.cfg.FlushEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.Flush() // next tick retries; the queue kept the batch
			case <-s.stop:
				return
			}
		}
	}()
}

// Close stops the background flusher. It does not flush: a shutdown
// with a dead root would otherwise hang, and the queue's contents are
// re-uploadable by design (devices re-send tables every session).
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

// Flush drains pending device registrations and queued uploads to the
// root in flushBatch-sized federation pushes until the queue is empty,
// returning how many tables the root accepted. On a push failure the
// batch returns to the queue and Flush stops — the next flush (or
// epoch) retries from where it left off.
func (s *Server) Flush() (forwarded int, err error) {
	if s.root == nil {
		return 0, nil
	}
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	for {
		devices := s.pending.Take()
		batch := s.queue.take(flushBatch)
		if len(devices) == 0 && len(batch) == 0 {
			return forwarded, nil
		}
		req := fleetd.FederateRequest{Agg: s.cfg.ID, Devices: devices}
		for _, p := range batch {
			req.Uploads = append(req.Uploads, fleetd.FederatedUpload{
				Device: p.pk.device, Platform: p.pk.key.Platform, Body: p.body,
			})
		}
		reply, ferr := s.root.Federate(req)
		if ferr != nil {
			s.queue.putBack(batch)
			for _, d := range devices {
				s.pending.Add(d)
			}
			s.metrics.flushFailures.Add(1)
			return forwarded, fmt.Errorf("aggregator %s: federation push: %w", s.cfg.ID, ferr)
		}
		s.metrics.flushes.Add(1)
		s.metrics.forwarded.Add(int64(reply.Accepted))
		s.metrics.dropped.Add(int64(reply.Rejected)) // root refused: poisoned, not retried
		forwarded += reply.Accepted
	}
}

// MergeLocal runs one local merge round for the key — the local-merge
// phase of a federation epoch, and what regional policy fallbacks
// serve from.
func (s *Server) MergeLocal(k fleetd.Key) (fleetd.MergeInfo, error) {
	start := time.Now()
	info, _, err := s.store.MergeSet(k)
	if err != nil {
		return fleetd.MergeInfo{}, err
	}
	info.LatencyUS = time.Since(start).Microseconds()
	return info, nil
}

// UploadReply is fleetd's upload acknowledgment plus the edge tier's
// backpressure signal: the upward-queue depth after the upload and,
// once the queue passes the soft watermark, an advisory delay the
// device should insert before its next upload. The hard signal — queue
// full — is a 429 with Retry-After, not a reply.
type UploadReply struct {
	fleetd.UploadReply
	Pending  int     `json:"pending"`
	BackoffS float64 `json:"backoff_s,omitempty"`
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) int {
	q := r.URL.Query()
	device, platform := q.Get("device"), q.Get("platform")
	data, status := s.door.ReadUpload(w, r)
	if status != http.StatusOK {
		return status
	}
	if r.Header.Get("X-Fleet-Base-Gen") != "" {
		// Edges don't track per-device upload generations (the queue
		// forwards raw bodies; the root's generations are not ours to
		// echo), so a delta upload can't be based here. 409 tells the
		// device to fall back to a full upload, same as a stale base.
		return fleetd.WriteErr(w, http.StatusConflict,
			fmt.Errorf("aggregator %s: delta uploads are not supported at the edge tier; send the full table", s.cfg.ID))
	}
	// The store copies the set's rows out; the queue keeps data itself.
	app, set, err := fleetd.DecodeSorted(r.Header.Get("Content-Type"), data, new(core.SortedSet))
	if err != nil {
		return fleetd.WriteErr(w, http.StatusBadRequest, fmt.Errorf("aggregator: bad table upload: %w", err))
	}
	k := fleetd.Key{App: app, Platform: platform}
	pk := pendKey{key: k, device: device}
	reply := UploadReply{UploadReply: fleetd.UploadReply{App: app, Platform: platform, Device: device}}
	var prev []byte // the device's pending body this upload replaced
	if s.root != nil {
		// Queue before store: a rejected upload must be rejected whole —
		// accepting it locally while refusing to forward it would
		// silently fork the edge from the root.
		var depth int
		var ok bool
		prev, depth, ok = s.queue.put(pk, data)
		if !ok {
			s.metrics.rejected.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterS))
			return fleetd.WriteErr(w, http.StatusTooManyRequests,
				fmt.Errorf("aggregator %s: upload queue full (%d pending); retry after %ds",
					s.cfg.ID, depth, retryAfterS))
		}
		reply.Pending = depth
		if depth*100 >= s.cfg.QueueLimit*softLimitPct {
			reply.BackoffS = retryAfterS
		}
	}
	n, _, err := s.store.Upload(k, device, set)
	if err != nil {
		// Nothing the local tier refused reaches the root, but the
		// device's earlier body stays queued: the local store kept it.
		if prev != nil {
			s.queue.put(pk, prev)
		} else {
			s.queue.remove(pk)
		}
		return fleetd.WriteErr(w, http.StatusBadRequest, err)
	}
	reply.Devices = n
	return fleetd.WriteJSON(w, http.StatusOK, reply)
}

func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) int {
	q := r.URL.Query()
	k := fleetd.Key{App: q.Get("app"), Platform: q.Get("platform")}
	info, err := s.MergeLocal(k)
	if err != nil {
		return fleetd.WriteErr(w, http.StatusBadRequest, err)
	}
	return fleetd.WriteJSON(w, http.StatusOK, info)
}

// handlePolicy proxies policy downloads to the root — preserving the
// device parameter, If-None-Match, and the rollout negotiation headers
// so staged-canary semantics survive the tier — and falls back to the
// local merged table when the root is unreachable or has no policy yet
// (stale-if-error regional serving). The X-Fleet-Source header names
// which tier answered.
func (s *Server) handlePolicy(w http.ResponseWriter, r *http.Request) int {
	k, _, status := s.door.PolicyQuery(w, r)
	if status != http.StatusOK {
		return status
	}
	if s.root != nil {
		if status, ok := s.proxyPolicy(w, r); ok {
			return status
		}
	}
	// The edge fallback honors the same Accept negotiation as the root,
	// so a binary-mode device keeps its encoding when the root is down,
	// and serves the regional policy's cached bytes the same way.
	data, ct, round, err := s.store.PolicyBody(k, fleetd.AcceptsBinary(r))
	if errors.Is(err, fleetd.ErrNoPolicy) {
		return fleetd.WriteErr(w, http.StatusNotFound, fmt.Errorf("aggregator %s: no policy for %s at root or edge", s.cfg.ID, k))
	}
	if err != nil {
		return fleetd.WriteErr(w, http.StatusInternalServerError, err)
	}
	s.metrics.proxyFallbacks.Add(1)
	w.Header().Set("X-Fleet-Round", strconv.FormatInt(round, 10))
	w.Header().Set("X-Fleet-Source", "edge")
	return fleetd.WriteBody(w, ct, data)
}

// proxiedPolicyHeaders are copied verbatim from the root's policy
// response so version negotiation (ETag/304, cohort, round) behaves as
// if the device had asked the root directly.
var proxiedPolicyHeaders = []string{"Content-Type", "ETag", "X-Fleet-Version", "X-Fleet-Cohort", "X-Fleet-Round"}

// proxyPolicy relays one policy download to the root. ok=false means
// the caller should fall back to the local store (transport failure or
// root 404); any other root answer is relayed as-is.
func (s *Server) proxyPolicy(w http.ResponseWriter, r *http.Request) (status int, ok bool) {
	u, err := url.Parse(s.rootURL + "/v1/policy")
	if err != nil {
		return 0, false
	}
	u.RawQuery = r.URL.RawQuery
	req, err := http.NewRequest(http.MethodGet, u.String(), nil)
	if err != nil {
		return 0, false
	}
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	// Accept travels too, so the root answers in the device's
	// negotiated encoding and the relay stays a verbatim byte copy.
	if acc := r.Header.Get("Accept"); acc != "" {
		req.Header.Set("Accept", acc)
	}
	resp, err := s.proxy.Do(req)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return 0, false
	}
	s.metrics.proxied.Add(1)
	for _, h := range proxiedPolicyHeaders {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Fleet-Source", "root")
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return resp.StatusCode, true
}

// FlushReply is the POST /v1/flush body: how many tables the root
// accepted in this drain and how many remain queued.
type FlushReply struct {
	Agg       string `json:"agg"`
	Forwarded int    `json:"forwarded"`
	Pending   int    `json:"pending"`
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) int {
	forwarded, err := s.Flush()
	if err != nil {
		return fleetd.WriteErr(w, http.StatusBadGateway, err)
	}
	return fleetd.WriteJSON(w, http.StatusOK, FlushReply{Agg: s.cfg.ID, Forwarded: forwarded, Pending: s.queue.depth()})
}

// HealthReply is the aggregator's /healthz body.
type HealthReply struct {
	Status    string  `json:"status"`
	Agg       string  `json:"agg"`
	Root      string  `json:"root,omitempty"`
	UptimeS   float64 `json:"uptime_s"`
	Policies  int     `json:"policies"`
	Merged    int     `json:"merged"`
	Tables    int     `json:"device_tables"`
	Devices   int     `json:"devices"`
	Pending   int     `json:"pending"`
	QueueCap  int     `json:"queue_cap"`
	Forwarded int64   `json:"forwarded"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) int {
	keys, merged, uploads := s.store.Stats()
	devices, _ := s.door.Devices()
	return fleetd.WriteJSON(w, http.StatusOK, HealthReply{
		Status: "ok", Agg: s.cfg.ID, Root: s.rootURL,
		UptimeS:  s.metrics.Uptime().Seconds(),
		Policies: keys, Merged: merged, Tables: uploads, Devices: devices,
		Pending: s.queue.depth(), QueueCap: s.cfg.QueueLimit, Forwarded: s.metrics.forwarded.Load(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) int {
	keys, merged, uploads := s.store.Stats()
	devices, _ := s.door.Devices()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.write(w, s.queue.depth(), s.cfg.QueueLimit, keys, merged, uploads, devices)
	return http.StatusOK
}
