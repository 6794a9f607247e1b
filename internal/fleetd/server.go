package fleetd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"nextdvfs/internal/cloud"
	"nextdvfs/internal/core"
	"nextdvfs/internal/rollout"
)

// roundHeader carries the merge-round number on policy downloads.
const roundHeader = "X-Fleet-Round"

// baseGenHeader turns PUT /v1/table into a delta upload: it echoes the
// per-device generation from the device's last accepted UploadReply,
// and the body carries only the states trained since. A mismatch —
// device unknown, server restarted, another session uploaded in
// between — answers 409 Conflict and the client falls back to a full
// upload.
const baseGenHeader = "X-Fleet-Base-Gen"

// Version-negotiation headers on policy downloads when the rollout
// lifecycle is enabled.
const (
	versionHeader = "X-Fleet-Version"
	cohortHeader  = "X-Fleet-Cohort"
)

// Config tunes a Server.
type Config struct {
	// SnapshotDir, when set, is restored from at construction and
	// written to after every merge round (one atomic file per merged
	// app×platform policy). Empty disables persistence.
	SnapshotDir string
	// MaxDevicesPerKey raises the distinct-devices-per-policy cap for
	// root servers that absorb whole aggregator regions of raw device
	// tables (0 → the store default of 4096).
	MaxDevicesPerKey int
	// Rollout enables the policy-lifecycle subsystem: merge rounds mint
	// versioned artifacts that reach the fleet through staged canary
	// cohorts with automatic QoS/energy rollback. Nil disables it —
	// policy serving then behaves exactly as before.
	Rollout *rollout.Config
}

// Server is the fleet policy service: an http.Handler over a Store.
type Server struct {
	cfg     Config
	store   *Store
	metrics *Metrics
	rollout *rollout.Manager // nil unless Config.Rollout is set
	door    *FrontDoor
	mux     *http.ServeMux
}

// NewServer builds a server, warm-starting from cfg.SnapshotDir when
// one is configured and present.
func NewServer(cfg Config) (*Server, error) {
	s := &Server{
		cfg:     cfg,
		store:   NewStoreMaxDevices(cfg.MaxDevicesPerKey),
		metrics: &Metrics{RequestMetrics: NewRequestMetrics("fleetd", "server")},
	}
	if cfg.SnapshotDir != "" {
		n, err := s.store.Restore(cfg.SnapshotDir)
		if err != nil {
			return nil, err
		}
		s.metrics.restored.Store(int64(n))
	}
	if cfg.Rollout != nil {
		s.rollout = rollout.New(*cfg.Rollout)
		if cfg.SnapshotDir != "" {
			if _, err := s.rollout.Restore(s.rolloutDir()); err != nil {
				return nil, err
			}
		}
	}
	// Check-ins and federation pushes register devices with the rollout
	// lifecycle, so cohort floors count edge devices too: the canary
	// stage widens until it covers at least one of them.
	var register func(string)
	if s.rollout != nil {
		register = s.rollout.RegisterDevice
	}
	s.door = NewFrontDoor("fleetd", s.store, register)
	mux := http.NewServeMux()
	m := s.metrics
	mux.HandleFunc("POST /v1/checkin", m.Handle("checkin", s.door.HandleCheckin))
	mux.HandleFunc("PUT /v1/table", m.Handle("upload", s.handleUpload))
	mux.HandleFunc("POST /v1/merge", m.Handle("merge", s.handleMerge))
	mux.HandleFunc("POST /v1/federate", m.Handle("federate", s.handleFederate))
	mux.HandleFunc("GET /v1/policy", m.Handle("policy", s.handlePolicy))
	mux.HandleFunc("GET /v1/apps", m.Handle("apps", s.door.HandleApps))
	mux.HandleFunc("GET /v1/rollout", m.Handle("rollout", s.handleRolloutStatus))
	mux.HandleFunc("POST /v1/rollout/advance", m.Handle("rollout", s.handleRolloutAdvance))
	mux.HandleFunc("POST /v1/rollout/rollback", m.Handle("rollout", s.handleRolloutRollback))
	mux.HandleFunc("POST /v1/report", m.Handle("report", s.handleReport))
	mux.HandleFunc("GET /healthz", m.Handle("healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", m.Handle("metrics", s.handleMetrics))
	s.mux = mux
	return s, nil
}

// rolloutDir is where rollout lifecycle state snapshots live, beside
// (not inside) the per-policy table snapshots.
func (s *Server) rolloutDir() string { return filepath.Join(s.cfg.SnapshotDir, "rollout") }

// Rollout exposes the lifecycle manager (nil when disabled) for
// in-process callers and tests.
func (s *Server) Rollout() *rollout.Manager { return s.rollout }

// Handler returns the service's http.Handler (mountable under a parent
// mux or served directly).
func (s *Server) Handler() http.Handler { return s.mux }

// Store exposes the underlying table store (in-process callers, tests).
func (s *Server) Store() *Store { return s.store }

// Metrics exposes the server's instrumentation.
func (s *Server) Metrics() *Metrics { return s.metrics }

// UploadReply acknowledges a table upload. Gen is the device's upload
// generation — echo it in the X-Fleet-Base-Gen header to send the next
// upload as a delta. Servers that don't track generations (aggregator
// edges) omit it.
type UploadReply struct {
	App      string `json:"app"`
	Platform string `json:"platform"`
	Device   string `json:"device"`
	Devices  int    `json:"devices"`
	Gen      int64  `json:"gen,omitempty"`
}

// mediaType normalizes a Content-Type/Accept member: parameters after
// ';' stripped, trimmed, lowercased.
func mediaType(v string) string {
	if i := strings.IndexByte(v, ';'); i >= 0 {
		v = v[:i]
	}
	return strings.ToLower(strings.TrimSpace(v))
}

// DecodeTableSet picks the wire codec by Content-Type, as DecodeSorted
// does, and decodes into a table set. Outside tests, only the frozen
// benchmark's replay calls it (ROADMAP item 9).
func DecodeTableSet(contentType string, data []byte) (string, *core.TableSet, bool, error) {
	if mediaType(contentType) == core.TableSetMediaType {
		return core.UnmarshalTableSetBinary(data)
	}
	return core.UnmarshalTableSet(data)
}

// DecodeSorted decodes an upload body into the sorted form the store
// takes, picking the wire codec by Content-Type: the binary media type
// decodes strictly as NXTB, straight into scratch, which it returns and
// which then aliases data; every other type (including the default
// empty one) takes the legacy JSON path, sorted once into a new set.
// Both validate the set against the learner registry. Root and edge
// share it, so both tiers negotiate identically.
func DecodeSorted(contentType string, data []byte, scratch *core.SortedSet) (string, *core.SortedSet, error) {
	if mediaType(contentType) == core.TableSetMediaType {
		app, _, err := scratch.DecodeBinary(data)
		return app, scratch, err
	}
	app, set, _, err := core.UnmarshalTableSet(data)
	if err != nil {
		return "", nil, err
	}
	sorted, err := core.SortTableSet(set)
	return app, sorted, err
}

// AcceptsBinary reports whether any member of the request's Accept
// list names the binary table media type.
func AcceptsBinary(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		if mediaType(part) == core.TableSetMediaType {
			return true
		}
	}
	return false
}

// EncodePolicy encodes a policy body in the negotiated encoding and
// returns the matching Content-Type.
func EncodePolicy(app string, set *core.TableSet, binary bool) ([]byte, string, error) {
	if binary {
		data, err := core.MarshalTableSetBinary(app, set, true)
		return data, core.TableSetMediaType, err
	}
	data, err := core.MarshalTableSetCompact(app, set, true)
	return data, "application/json", err
}

// uploadScratch is the memory one upload request is read and decoded
// in: the body buffer and the sorted set over it. The store keeps no
// reference to either once its upload call returns, so handleUpload
// takes one from uploadScratches and gives it back after the reply,
// and steady-state uploads allocate no body or decode memory.
type uploadScratch struct {
	body []byte
	set  core.SortedSet
}

var uploadScratches = sync.Pool{New: func() any { return new(uploadScratch) }}

// release gives sc back to the pool, unless its body buffer grew past
// maxPresize: such a scratch, with the decode slices its body sized, is
// left to the garbage collector, so the pool never holds on to an
// outsized buffer.
func (sc *uploadScratch) release() {
	if cap(sc.body) > maxPresize+bytes.MinRead {
		return
	}
	uploadScratches.Put(sc)
}

// handleUpload takes a full or delta upload (a delta carries the base
// generation header): the body goes from its wire bytes to the sorted
// form and into the store without a QTable. A binary body decodes into
// the pooled scratch set and its rows stay in the pooled body, which
// the store reads, clamped, as it copies them into the merge arena;
// neither outlives the request.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) int {
	q := r.URL.Query()
	device, platform := q.Get("device"), q.Get("platform")
	sc := uploadScratches.Get().(*uploadScratch)
	defer sc.release()
	data, status := s.door.readBody(w, r, maxUploadBytes, "upload", sc.body)
	if status != http.StatusOK {
		return status
	}
	sc.body = data
	app, set, err := DecodeSorted(r.Header.Get("Content-Type"), data, &sc.set)
	if err != nil {
		return WriteErr(w, http.StatusBadRequest, fmt.Errorf("fleetd: bad table upload: %w", err))
	}
	var baseGen int64
	baseHdr := r.Header.Get(baseGenHeader)
	delta := baseHdr != ""
	if delta {
		if baseGen, err = strconv.ParseInt(baseHdr, 10, 64); err != nil {
			return WriteErr(w, http.StatusBadRequest, fmt.Errorf("fleetd: bad %s header: %w", baseGenHeader, err))
		}
	}
	n, gen, err := s.store.upload(Key{App: app, Platform: platform}, device, set, delta, baseGen)
	if err != nil {
		if errors.Is(err, ErrDeltaBase) {
			s.metrics.deltaConflicts.Add(1)
			return WriteErr(w, http.StatusConflict, err)
		}
		return WriteErr(w, http.StatusBadRequest, err)
	}
	return WriteJSON(w, http.StatusOK,
		UploadReply{App: app, Platform: platform, Device: device, Devices: n, Gen: gen})
}

func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) int {
	q := r.URL.Query()
	k := Key{App: q.Get("app"), Platform: q.Get("platform")}
	start := time.Now()
	info, set, err := s.store.MergeSet(k)
	// Latency covers the merge itself, captured once so the reply and
	// the metric agree; snapshot disk I/O is deliberately excluded.
	elapsed := time.Since(start)
	if err != nil {
		return WriteErr(w, http.StatusBadRequest, err)
	}
	info.LatencyUS = elapsed.Microseconds()
	s.metrics.observeMerge(elapsed)
	if s.rollout != nil {
		// Mint (or dedup to) this round's policy artifact. The merged set
		// is immutable once published, so the artifact shares it.
		mintStart := time.Now()
		art, err := cloud.NewArtifact(set, info.Round, info.Devices)
		if err != nil {
			return WriteErr(w, http.StatusInternalServerError, fmt.Errorf("fleetd: building artifact for %s: %w", k, err))
		}
		sub, err := s.rollout.Submit(k.String(), art)
		if err != nil {
			return WriteErr(w, http.StatusInternalServerError, err)
		}
		s.metrics.observeMint(time.Since(mintStart))
		info.Version = sub.Version
	}
	if s.cfg.SnapshotDir != "" {
		if err := s.store.SnapshotKey(s.cfg.SnapshotDir, k); err != nil {
			return WriteErr(w, http.StatusInternalServerError, fmt.Errorf("fleetd: snapshotting %s: %w", k, err))
		}
		s.metrics.snapshotWritten()
		if s.rollout != nil {
			if err := s.rollout.SnapshotKey(s.rolloutDir(), k.String()); err != nil {
				return WriteErr(w, http.StatusInternalServerError, fmt.Errorf("fleetd: snapshotting rollout %s: %w", k, err))
			}
		}
	}
	return WriteJSON(w, http.StatusOK, info)
}

// artifactETag derives the policy ETag a version-aware client echoes
// back via If-None-Match: the version plus a content-hash prefix, so a
// warm restart that renumbers nothing and a same-version different-
// content bug both invalidate correctly.
func artifactETag(meta core.ArtifactMeta) string {
	h := strings.TrimPrefix(meta.Hash, "sha256:")
	if len(h) > 12 {
		h = h[:12]
	}
	return fmt.Sprintf("%q", fmt.Sprintf("v%d-%s", meta.Version, h))
}

func (s *Server) handlePolicy(w http.ResponseWriter, r *http.Request) int {
	k, device, status := s.door.PolicyQuery(w, r)
	if status != http.StatusOK {
		return status
	}
	// Accept-negotiated encoding. The ETag hashes the table content,
	// not the transfer encoding, so a client may switch encodings
	// between polls without invalidating its cache. Each artifact, like
	// each store policy, encodes once per encoding: its memo lives in
	// the artifact's Derived slot, shared by every copy.
	binary := AcceptsBinary(r)
	if s.rollout != nil {
		if art, cohort, ok := s.rollout.Resolve(k.String(), device); ok {
			etag := artifactETag(art.ArtifactMeta)
			w.Header().Set(versionHeader, strconv.FormatInt(art.Version, 10))
			w.Header().Set(cohortHeader, cohort)
			w.Header().Set(roundHeader, strconv.FormatInt(art.Round, 10))
			w.Header().Set("ETag", etag)
			// Only version-aware clients (those that identify themselves)
			// get the skip-redundant-download path; a legacy client that
			// happens to send If-None-Match still gets the full body.
			if device != "" && r.Header.Get("If-None-Match") == etag {
				w.WriteHeader(http.StatusNotModified)
				return http.StatusNotModified
			}
			p := art.Derived(func() any { return s.store.publish(k.App, art.Set) }).(*published)
			data, ct, err := p.body(binary)
			if err != nil {
				return WriteErr(w, http.StatusInternalServerError, err)
			}
			return WriteBody(w, ct, data)
		}
		// No artifact yet for this key (e.g. lifecycle enabled over a
		// pre-rollout snapshot dir): fall through to the legacy path.
	}
	// Published sets are immutable, so each is encoded once per
	// encoding and every pull writes the cached bytes. Multi-table
	// policies travel whole (aux roles under "aux"), so a Double-Q fleet
	// round-trips both estimators.
	data, ct, round, err := s.store.PolicyBody(k, binary)
	if errors.Is(err, ErrNoPolicy) {
		return WriteErr(w, http.StatusNotFound, err)
	}
	if err != nil {
		return WriteErr(w, http.StatusInternalServerError, err)
	}
	w.Header().Set(roundHeader, strconv.FormatInt(round, 10))
	return WriteBody(w, ct, data)
}

// errRolloutDisabled answers lifecycle endpoints on servers running
// without the rollout subsystem.
var errRolloutDisabled = errors.New("fleetd: rollout lifecycle not enabled on this server")

func (s *Server) handleRolloutStatus(w http.ResponseWriter, r *http.Request) int {
	if s.rollout == nil {
		return WriteErr(w, http.StatusNotFound, errRolloutDisabled)
	}
	q := r.URL.Query()
	app, platform := q.Get("app"), q.Get("platform")
	if app == "" && platform == "" {
		return WriteJSON(w, http.StatusOK, s.rollout.Statuses())
	}
	k := Key{App: app, Platform: platform}
	if err := k.validate("fleetd"); err != nil {
		return WriteErr(w, http.StatusBadRequest, err)
	}
	st, ok := s.rollout.Status(k.String())
	if !ok {
		return WriteErr(w, http.StatusNotFound, fmt.Errorf("fleetd: no rollout state for %s", k))
	}
	return WriteJSON(w, http.StatusOK, st)
}

// rolloutAction runs one admin lifecycle action (advance / rollback)
// and persists the resulting state.
func (s *Server) rolloutAction(w http.ResponseWriter, r *http.Request,
	act func(key string) (rollout.Decision, error)) int {
	if s.rollout == nil {
		return WriteErr(w, http.StatusNotFound, errRolloutDisabled)
	}
	q := r.URL.Query()
	k := Key{App: q.Get("app"), Platform: q.Get("platform")}
	if err := k.validate("fleetd"); err != nil {
		return WriteErr(w, http.StatusBadRequest, err)
	}
	d, err := act(k.String())
	if err != nil {
		// "no active rollout" / "not enough reports yet" are state
		// conflicts, not malformed requests.
		return WriteErr(w, http.StatusConflict, err)
	}
	if s.cfg.SnapshotDir != "" {
		if err := s.rollout.SnapshotKey(s.rolloutDir(), k.String()); err != nil {
			return WriteErr(w, http.StatusInternalServerError, fmt.Errorf("fleetd: snapshotting rollout %s: %w", k, err))
		}
	}
	return WriteJSON(w, http.StatusOK, d)
}

func (s *Server) handleRolloutAdvance(w http.ResponseWriter, r *http.Request) int {
	return s.rolloutAction(w, r, func(key string) (rollout.Decision, error) {
		return s.rollout.Advance(key)
	})
}

func (s *Server) handleRolloutRollback(w http.ResponseWriter, r *http.Request) int {
	return s.rolloutAction(w, r, func(key string) (rollout.Decision, error) {
		return s.rollout.Rollback(key)
	})
}

// ReportReply acknowledges an evaluation report with the cohort it
// counted toward.
type ReportReply struct {
	Device  string `json:"device"`
	Version int64  `json:"version"`
	Cohort  string `json:"cohort"`
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) int {
	if s.rollout == nil {
		return WriteErr(w, http.StatusNotFound, errRolloutDisabled)
	}
	q := r.URL.Query()
	k := Key{App: q.Get("app"), Platform: q.Get("platform")}
	if err := k.validate("fleetd"); err != nil {
		return WriteErr(w, http.StatusBadRequest, err)
	}
	var rep rollout.EvalReport
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&rep); err != nil {
		return WriteErr(w, http.StatusBadRequest, fmt.Errorf("fleetd: bad report body: %w", err))
	}
	if !safeName(rep.Device) {
		return WriteErr(w, http.StatusBadRequest,
			fmt.Errorf("fleetd: report needs a device as a single [a-zA-Z0-9._-] segment"))
	}
	cohort, err := s.rollout.Report(k.String(), rep)
	if err != nil {
		return WriteErr(w, http.StatusConflict, err)
	}
	return WriteJSON(w, http.StatusOK, ReportReply{Device: rep.Device, Version: rep.Version, Cohort: cohort})
}

// HealthReply is the /healthz body.
type HealthReply struct {
	Status       string  `json:"status"`
	UptimeS      float64 `json:"uptime_s"`
	Policies     int     `json:"policies"`
	Merged       int     `json:"merged"`
	DeviceTables int     `json:"device_tables"`
	Devices      int     `json:"devices"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) int {
	keys, merged, uploads := s.store.Stats()
	devices, _ := s.door.Devices()
	return WriteJSON(w, http.StatusOK, HealthReply{
		Status: "ok", UptimeS: s.metrics.Uptime().Seconds(),
		Policies: keys, Merged: merged, DeviceTables: uploads, Devices: devices,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) int {
	devices, untracked := s.door.Devices()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.write(w, s.store, devices, untracked)
	if s.rollout != nil {
		s.metrics.writeRollout(w, s.rollout.Statuses(), s.rollout.RollbacksTotal())
	}
	return http.StatusOK
}
