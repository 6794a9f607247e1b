package sim_test

import (
	"fmt"
	"testing"

	"nextdvfs/internal/golden"
	"nextdvfs/internal/platform"
	"nextdvfs/internal/scenario"
	"nextdvfs/internal/sim"
)

// goldenFile holds one SHA-256 of the full %+v rendering of a Result —
// every summary field and every trace sample — per platform × scenario
// preset × engine seed. The differential tests only compare the two
// engines with each other; these pins compare both with the recorded
// output, so a change in code the engines share cannot slip through.
const goldenFile = "testdata/golden_results.txt"

// goldenHeader is the comment block of a regenerated goldenFile.
const goldenHeader = `SHA-256 of fmt.Sprintf("%+v", sim.Result) per platform/scenario (2% scale,
struct seed 42) and engine seed; see TestGoldenResults.`

// Golden runs use the differential matrix's shape: 2% scenarios at
// struct seed 42. Scalar engines run goldenScalarSeeds; one lockstep
// batch runs goldenBatchSeeds as its lanes (four lanes, so the AVX2
// kernels take part where the host has them).
var (
	goldenScalarSeeds = []int64{100, 101}
	goldenBatchSeeds  = []int64{100, 101, 102, 103}
)

func goldenKey(cell string, seed int64) string { return fmt.Sprintf("%s seed=%d", cell, seed) }

// TestGoldenResults pins every scalar run and every batch lane of the
// platform × scenario matrix to its recorded Result hash. On a
// mismatch the log carries the full regenerated file, so an intended
// output change is re-pinned by pasting it into testdata.
func TestGoldenResults(t *testing.T) {
	const structSeed = 42
	got := map[string]string{}
	check := func(t *testing.T, key, engine string, r sim.Result) {
		t.Helper()
		h := golden.Hash(r)
		if prev, ok := got[key]; ok && prev != h {
			t.Errorf("%s: %s hash %s differs from the other engine's %s", key, engine, h, prev)
		}
		got[key] = h
	}
	for _, pname := range platform.Names() {
		plat := platform.MustGet(pname)
		for _, sname := range scenario.Names() {
			cell := pname + "/" + sname
			t.Run(cell, func(t *testing.T) {
				scn := scenario.Scaled(scenario.MustGet(sname), 0.02)
				for _, seed := range goldenScalarSeeds {
					e, err := sim.New(sweepConfig(t, scn, plat, structSeed, seed))
					if err != nil {
						t.Fatal(err)
					}
					check(t, goldenKey(cell, seed), "scalar", e.Run())
				}
				cfgs := make([]sim.Config, len(goldenBatchSeeds))
				for r, seed := range goldenBatchSeeds {
					cfgs[r] = sweepConfig(t, scn, plat, structSeed, seed)
				}
				b, err := sim.NewBatch(cfgs)
				if err != nil {
					t.Fatalf("NewBatch: %v", err)
				}
				for r, res := range b.Run() {
					check(t, goldenKey(cell, goldenBatchSeeds[r]), "batch lane", res)
				}
			})
		}
	}
	golden.Check(t, goldenFile, goldenHeader, got)
}
