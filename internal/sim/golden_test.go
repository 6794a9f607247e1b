package sim_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

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

// Golden runs use the differential matrix's shape: 2% scenarios at
// struct seed 42. Scalar engines run goldenScalarSeeds; one lockstep
// batch runs goldenBatchSeeds as its lanes (four lanes, so the AVX2
// kernels take part where the host has them).
var (
	goldenScalarSeeds = []int64{100, 101}
	goldenBatchSeeds  = []int64{100, 101, 102, 103}
)

func resultHash(r sim.Result) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", r)))
	return hex.EncodeToString(sum[:])
}

func goldenKey(cell string, seed int64) string { return fmt.Sprintf("%s seed=%d", cell, seed) }

func loadGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.FromSlash(goldenFile))
	if err != nil {
		t.Fatalf("open golden pins: %v", err)
	}
	defer f.Close()
	pins := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed golden line %q", line)
		}
		pins[line[:i]] = line[i+1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pins
}

// TestGoldenResults pins every scalar run and every batch lane of the
// platform × scenario matrix to its recorded Result hash. On a
// mismatch the log carries the full regenerated file, so an intended
// output change is re-pinned by pasting it into testdata.
func TestGoldenResults(t *testing.T) {
	const structSeed = 42
	pins := loadGolden(t)
	got := map[string]string{}
	failed := false
	check := func(t *testing.T, key, engine string, r sim.Result) {
		t.Helper()
		h := resultHash(r)
		if prev, ok := got[key]; ok && prev != h {
			t.Errorf("%s: %s hash %s differs from the other engine's %s", key, engine, h, prev)
		}
		got[key] = h
		if want, ok := pins[key]; !ok {
			t.Errorf("%s: no golden pin", key)
		} else if want != h {
			t.Errorf("%s: %s hash %s, pinned %s", key, engine, h, want)
		}
	}
	for _, pname := range platform.Names() {
		plat := platform.MustGet(pname)
		for _, sname := range scenario.Names() {
			cell := pname + "/" + sname
			ok := t.Run(cell, func(t *testing.T) {
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
			failed = failed || !ok
		}
	}
	if failed {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s %s\n", k, got[k])
		}
		t.Logf("regenerated %s:\n%s", goldenFile, sb.String())
	}
}
