package cloud

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
)

// TestMergerParallelMatchesJoin pins the parallel accumulate: over an
// arena of devices paired on identical key sets, so the two-device runs
// engage, and devices with weights too wide for 32 bits, every round's
// Merge is NXTB-identical to
// JoinDevices over the same uploads at GOMAXPROCS 1, 2 and 4, one arena
// per worker count fed the same uploads.
func TestMergerParallelMatchesJoin(t *testing.T) {
	const devices, space, actions = 48, 3000, 9
	rng := rand.New(rand.NewSource(5))
	procs := []int{1, 2, 4}
	mergers := make([]*Merger, len(procs))
	for i := range mergers {
		mergers[i] = NewMerger()
	}
	uploads := make(map[string]*learner.TableSet)
	table := func(dev int, keys []core.StateKey) *learner.TableSet {
		q := core.NewQTable(actions)
		for _, k := range keys {
			row := make([]float64, actions)
			for a := range row {
				row[a] = rng.NormFloat64()
			}
			q.Q[k] = row
			switch {
			case dev%7 == 3 && k%5 == 0:
				q.Visits[k] = int(wideVisits) + int(k)
			case rng.Intn(4) > 0:
				q.Visits[k] = 1 + rng.Intn(500)
			}
		}
		q.Steps = int64(rng.Intn(1000))
		return learner.SingleTableSet(q)
	}
	keysFor := func() []core.StateKey {
		var keys []core.StateKey
		for k := 0; k < space; k++ {
			if rng.Intn(3) > 0 {
				keys = append(keys, core.StateKey(k*3))
			}
		}
		return keys
	}
	for round := 1; round <= 4; round++ {
		// Round 1 brings every device; later rounds re-upload a third of
		// the fleet, pairs together, over fresh key sets.
		for dev := 0; dev < devices; dev += 2 {
			if round > 1 && rng.Intn(3) > 0 {
				continue
			}
			keys := keysFor()
			for _, d := range []int{dev, dev + 1} {
				id := fmt.Sprintf("dev-%03d", d)
				uploads[id] = table(d, keys)
				for _, m := range mergers {
					if !m.Upload(id, uploads[id]) {
						t.Fatalf("round %d: upload of %s refused", round, id)
					}
				}
			}
		}
		want, _, err := JoinDevices(uploads)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes := nxtb(t, want)
		for i, m := range mergers {
			prev := runtime.GOMAXPROCS(procs[i])
			got := m.Merge()
			runtime.GOMAXPROCS(prev)
			if !bytes.Equal(nxtb(t, got), wantBytes) {
				t.Fatalf("round %d, GOMAXPROCS %d: Merge differs from JoinDevices", round, procs[i])
			}
		}
	}
}
