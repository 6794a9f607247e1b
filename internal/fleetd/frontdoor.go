package fleetd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
)

// This file is the device front door both fleet tiers share: the root
// (Server) and the edge (internal/aggregator) decode check-ins, bound
// request bodies, check policy queries, list policies and track
// devices through the same code, so a device gets the same answers
// from either tier. Each tier
// keeps only its own registration step and what follows a body read.

// Intake limits, the same on both tiers (docs/operations.md, "Fixed
// limits").
const (
	// maxUploadBytes bounds one device table upload, and each table an
	// aggregator relays in a federation push.
	maxUploadBytes = 16 << 20
	// maxFederateBytes bounds one federation push, which batches many
	// device tables.
	maxFederateBytes = 64 << 20
	// maxCheckinBytes bounds a check-in body; a longer one fails to
	// decode.
	maxCheckinBytes = 1 << 16
	// maxPresize bounds how far readBody trusts a declared body length
	// ahead of the bytes: a body is read into one buffer sized from its
	// Content-Length up to this cap, and past it the buffer grows only
	// as data arrives. It also bounds the body buffers the root keeps
	// pooled between uploads (see uploadScratch).
	maxPresize = 1 << 20
	// maxTrackedDevices bounds every DeviceSet. Check-ins are
	// unauthenticated, so an unbounded set would be a memory leak under
	// ID-spraying traffic.
	maxTrackedDevices = 1 << 16
)

// DeviceSet is a bounded set of device IDs, safe for concurrent use;
// the zero value is empty. Past maxTrackedDevices new IDs are counted,
// not stored, so the tracked size is a lower bound on distinct devices.
type DeviceSet struct {
	mu       sync.Mutex
	ids      map[string]struct{}
	overflow int
}

// Add records a device.
func (s *DeviceSet) Add(device string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, seen := s.ids[device]; seen {
		return
	}
	if len(s.ids) >= maxTrackedDevices {
		s.overflow++
		return
	}
	if s.ids == nil {
		s.ids = make(map[string]struct{})
	}
	s.ids[device] = struct{}{}
}

// Len returns how many devices the set stores and how many Adds it
// counted past the bound.
func (s *DeviceSet) Len() (tracked, untracked int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ids), s.overflow
}

// Take empties the set and returns the devices it stored, in no
// particular order.
func (s *DeviceSet) Take() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ids) == 0 {
		return nil
	}
	out := make([]string, 0, len(s.ids))
	for d := range s.ids {
		out = append(out, d)
	}
	s.ids, s.overflow = nil, 0
	return out
}

// FrontDoor is the device intake of one fleet tier over its store.
type FrontDoor struct {
	tier     string // names the tier in error messages
	store    *Store
	register func(device string) // the tier's own registration step; may be nil
	seen     DeviceSet
}

// NewFrontDoor builds the intake for a tier named tier ("fleetd",
// "aggregator") over store. register, when non-nil, runs for every
// device that checks in.
func NewFrontDoor(tier string, store *Store, register func(device string)) *FrontDoor {
	return &FrontDoor{tier: tier, store: store, register: register}
}

// note records a device as seen and runs the tier's registration.
func (d *FrontDoor) note(device string) {
	d.seen.Add(device)
	if d.register != nil {
		d.register(device)
	}
}

// Devices returns the tracked and untracked sizes of the seen set.
func (d *FrontDoor) Devices() (tracked, untracked int) { return d.seen.Len() }

// CheckinRequest is a device's periodic announcement.
type CheckinRequest struct {
	Device   string `json:"device"`
	Platform string `json:"platform"`
}

// CheckinReply tells the device which merged policies exist for its
// platform, so it knows what to download and what still needs training.
type CheckinReply struct {
	Device   string    `json:"device"`
	Platform string    `json:"platform"`
	Policies []KeyInfo `json:"policies"`
}

// HandleCheckin answers POST /v1/checkin: it registers the device and
// lists the platform's policies that have been merged at least once.
func (d *FrontDoor) HandleCheckin(w http.ResponseWriter, r *http.Request) int {
	var req CheckinRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxCheckinBytes)).Decode(&req); err != nil {
		return WriteErr(w, http.StatusBadRequest, fmt.Errorf("%s: bad check-in body: %w", d.tier, err))
	}
	if !safeName(req.Device) || !safeName(req.Platform) {
		return WriteErr(w, http.StatusBadRequest,
			fmt.Errorf("%s: check-in needs device and platform as single [a-zA-Z0-9._-] segments", d.tier))
	}
	d.note(req.Device)
	reply := CheckinReply{Device: req.Device, Platform: req.Platform, Policies: []KeyInfo{}}
	for _, info := range d.store.Infos(req.Platform) {
		if info.Round > 0 {
			reply.Policies = append(reply.Policies, info)
		}
	}
	return WriteJSON(w, http.StatusOK, reply)
}

// HandleApps answers GET /v1/apps: every known policy, optionally for
// one platform.
func (d *FrontDoor) HandleApps(w http.ResponseWriter, r *http.Request) int {
	infos := d.store.Infos(r.URL.Query().Get("platform"))
	if infos == nil {
		infos = []KeyInfo{}
	}
	return WriteJSON(w, http.StatusOK, infos)
}

// PolicyQuery reads the key and device of a GET /v1/policy request and
// checks them: app and platform must be single [a-zA-Z0-9._-] segments,
// and so must the device when one is given. On success the status is
// 200 and nothing has been written; otherwise the 400 is already
// answered and the handler returns the status.
func (d *FrontDoor) PolicyQuery(w http.ResponseWriter, r *http.Request) (k Key, device string, status int) {
	q := r.URL.Query()
	k = Key{App: q.Get("app"), Platform: q.Get("platform")}
	device = q.Get("device")
	err := k.validate(d.tier)
	if err == nil && device != "" && !safeName(device) {
		err = fmt.Errorf("%s: device must be a single [a-zA-Z0-9._-] segment", d.tier)
	}
	if err != nil {
		return k, device, WriteErr(w, http.StatusBadRequest, err)
	}
	return k, device, http.StatusOK
}

// ReadUpload reads a device table upload body into a fresh buffer. See
// readBody.
func (d *FrontDoor) ReadUpload(w http.ResponseWriter, r *http.Request) ([]byte, int) {
	return d.readBody(w, r, maxUploadBytes, "upload", nil)
}

// readBody reads a request body of at most limit bytes, appending it to
// buf[:0]: buf's memory is reused while the body fits, and a nil buf
// reads into a fresh buffer. On success the status is 200 and nothing
// has been written; otherwise the error is already answered — 413 past
// the limit, 400 on a read error — and the handler returns the status.
// A body whose declared length is past the limit is refused before any
// of it is read; one within it is read into a buffer sized from that
// length, at most maxPresize bytes ahead of what has arrived.
func (d *FrontDoor) readBody(w http.ResponseWriter, r *http.Request, limit int64, what string, buf []byte) ([]byte, int) {
	var data []byte
	var err error
	body := http.MaxBytesReader(w, r.Body, limit)
	switch {
	case r.ContentLength > limit:
		err = &http.MaxBytesError{Limit: limit}
	case r.ContentLength >= 0:
		// The spare MinRead bytes let the read that finds the end of the
		// body land without growing the buffer.
		if n := int(min(r.ContentLength, maxPresize)) + bytes.MinRead; cap(buf) < n {
			buf = make([]byte, 0, n)
		}
		data, err = readAll(body, buf[:0])
	default:
		data, err = readAll(body, buf[:0])
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, WriteErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("%s: %s exceeds %d bytes", d.tier, what, tooBig.Limit))
		}
		return nil, WriteErr(w, http.StatusBadRequest, fmt.Errorf("%s: reading %s: %w", d.tier, what, err))
	}
	return data, http.StatusOK
}

// readAll appends r's bytes to buf until EOF, growing buf only when it
// is full.
func readAll(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, bytes.MinRead)
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
