package fleetd

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"nextdvfs/internal/cloud"
	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
)

// BenchmarkDeltaUpload times the stages of the delta-upload handler, one
// sub-benchmark each, on a fixed 1,360-state × 9-action NXTB delta (the
// size of a delta in the fleet benchmark's recorded traffic): read
// (FrontDoor.readBody), decode (core.UnmarshalSortedSetBinary),
// sanitize, and arena (Merger.UploadDelta into a merged-in device's
// column of a 16-device arena). Two deltas over the same states
// alternate, so every arena update rewrites the device's rows.
func BenchmarkDeltaUpload(b *testing.B) {
	const states, actions, devices = 1360, 9, 16
	rng := rand.New(rand.NewSource(42))
	table := func() *learner.TableSet {
		t := core.NewQTable(actions)
		for s := 0; s < states; s++ {
			row := make([]float64, actions)
			for a := range row {
				row[a] = rng.NormFloat64()
			}
			t.Q[core.StateKey(s*7)] = row
			t.Visits[core.StateKey(s*7)] = rng.Intn(200) + 1
		}
		t.Steps = int64(rng.Intn(1_000_000))
		return learner.SingleTableSet(t)
	}
	var bodies [2][]byte
	for i := range bodies {
		var err error
		if bodies[i], err = core.MarshalTableSetBinary("spotify", table(), false); err != nil {
			b.Fatal(err)
		}
	}
	decode := func(b *testing.B) [2]*core.SortedSet {
		var sets [2]*core.SortedSet
		for i, body := range bodies {
			_, set, _, err := core.UnmarshalSortedSetBinary(body)
			if err != nil {
				b.Fatal(err)
			}
			sets[i] = set
		}
		return sets
	}

	b.Run("read", func(b *testing.B) {
		door := NewFrontDoor("fleetd", nil, nil)
		rec := httptest.NewRecorder()
		body := bytes.NewReader(nil)
		req := &http.Request{Body: io.NopCloser(body)}
		b.SetBytes(int64(len(bodies[0])))
		b.ResetTimer()
		for i := range b.N {
			body.Reset(bodies[i%2])
			req.ContentLength = int64(len(bodies[i%2]))
			if _, status := door.ReadUpload(rec, req); status != http.StatusOK {
				b.Fatalf("read: status %d", status)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(bodies[0])))
		b.ResetTimer()
		for i := range b.N {
			if _, _, _, err := core.UnmarshalSortedSetBinary(bodies[i%2]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sanitize", func(b *testing.B) {
		sets := decode(b)
		b.ResetTimer()
		for i := range b.N {
			sanitizeSorted(sets[i%2])
		}
	})
	b.Run("arena", func(b *testing.B) {
		uploads := make(map[string]*learner.TableSet, devices)
		for d := range devices {
			uploads[fmt.Sprintf("dev-%02d", d)] = table()
		}
		m := cloud.NewMerger()
		if _, _, err := m.Rebuild(uploads); err != nil {
			b.Fatal(err)
		}
		sets := decode(b)
		b.ResetTimer()
		for i := range b.N {
			if !m.UploadDelta("dev-00", sets[i%2]) {
				b.Fatal("arena refused the delta")
			}
		}
	})
}
