package fleetd

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"nextdvfs/internal/core"
)

// TestDeviceSetBound pins the one device bound both tiers share: past
// maxTrackedDevices new IDs are counted, not stored; known IDs are
// neither; Take drains the set.
func TestDeviceSetBound(t *testing.T) {
	var s DeviceSet
	for i := 0; i < maxTrackedDevices+2; i++ {
		s.Add(fmt.Sprintf("dev-%08d", i))
	}
	s.Add("dev-00000000")
	if tracked, untracked := s.Len(); tracked != maxTrackedDevices || untracked != 2 {
		t.Fatalf("Len = %d tracked, %d untracked; want %d, 2", tracked, untracked, maxTrackedDevices)
	}
	if got := len(s.Take()); got != maxTrackedDevices {
		t.Fatalf("Take returned %d devices, want %d", got, maxTrackedDevices)
	}
	if tracked, untracked := s.Len(); tracked != 0 || untracked != 0 {
		t.Fatalf("Len after Take = %d, %d; want 0, 0", tracked, untracked)
	}
	if s.Take() != nil {
		t.Fatal("Take on an empty set returned devices")
	}
}

// TestDeclaredLengthTrustedOnlyToPresizeCap: an upload that declares
// the whole 16 MiB limit but sends a few bytes gets 400, and reading it
// allocates no more than maxPresize, not the declared length; a body
// that declares a length within the limit but runs past it still gets
// 413.
func TestDeclaredLengthTrustedOnlyToPresizeCap(t *testing.T) {
	srv, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	const sent = "NXTB\x01\x00"
	short := func() *http.Request {
		req := httptest.NewRequest(http.MethodPut, "/v1/table?device=dev-a&platform=note9", strings.NewReader(sent))
		req.Header.Set("Content-Type", core.TableSetMediaType)
		req.ContentLength = maxUploadBytes
		return req
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, short())
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("short body declaring %d bytes: status %d %s, want 400", maxUploadBytes, rec.Code, rec.Body)
	}

	req, rec := short(), httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	data, status := srv.door.ReadUpload(rec, req)
	runtime.ReadMemStats(&after)
	if status != http.StatusOK || string(data) != sent {
		t.Fatalf("ReadUpload = %q, %d; want %q, 200", data, status, sent)
	}
	// The slack covers the request plumbing's own small allocations.
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(maxPresize+64<<10); got > bound {
		t.Fatalf("reading %d bytes that declared %d allocated %d bytes, want at most %d", len(sent), maxUploadBytes, got, bound)
	}

	over := httptest.NewRequest(http.MethodPut, "/v1/table?device=dev-a&platform=note9", bytes.NewReader(make([]byte, maxUploadBytes+1)))
	over.ContentLength = maxPresize
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, over)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body past the limit under a smaller declared length: status %d %s, want 413", rec.Code, rec.Body)
	}
}
