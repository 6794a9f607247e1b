package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"nextdvfs/internal/platform"
	"nextdvfs/internal/scenario"
	"nextdvfs/internal/sim"
)

// sweepConfig assembles one lane of a lockstep seed sweep: the scenario
// is compiled at a fixed structural seed (identical phase structure and
// schedules in every lane, fresh app instances) while the engine seed
// varies per lane — the contract exp.SeedSweep and the batched bench
// path rely on.
func sweepConfig(t *testing.T, scn scenario.Scenario, plat platform.Platform, structSeed, engineSeed int64) sim.Config {
	t.Helper()
	compiled, err := scenario.Compile(scn, structSeed, plat.AmbientC)
	if err != nil {
		t.Fatal(err)
	}
	cfg := plat.Config(compiled.Timeline, engineSeed)
	cfg.Ambient = compiled.Ambient
	cfg.Refresh = compiled.Refresh
	return cfg
}

// TestBatchMatchesScalarEngine is the tentpole differential pin: for
// every registered platform × scenario preset, a k-lane BatchEngine
// must reproduce k independent scalar Engine runs byte-for-byte
// (reflect.DeepEqual over the full Result including every trace
// sample). Scenarios are scaled to 2% so the full matrix stays fast
// while still crossing app switches, ambient moves and refresh
// switches. Widths 3 and 4 take the portable and (where the host has
// AVX2) the vector power kernels.
func TestBatchMatchesScalarEngine(t *testing.T) {
	const structSeed = 42
	widths := []int{3, 4}
	maxK := widths[len(widths)-1]
	for _, pname := range platform.Names() {
		plat := platform.MustGet(pname)
		for _, sname := range scenario.Names() {
			t.Run(pname+"/"+sname, func(t *testing.T) {
				scn := scenario.Scaled(scenario.MustGet(sname), 0.02)

				want := make([]sim.Result, maxK)
				for r := range want {
					e, err := sim.New(sweepConfig(t, scn, plat, structSeed, int64(100+r)))
					if err != nil {
						t.Fatal(err)
					}
					want[r] = e.Run()
				}

				for _, k := range widths {
					cfgs := make([]sim.Config, k)
					for r := 0; r < k; r++ {
						cfgs[r] = sweepConfig(t, scn, plat, structSeed, int64(100+r))
					}
					b, err := sim.NewBatch(cfgs)
					if err != nil {
						t.Fatalf("k=%d NewBatch: %v", k, err)
					}
					got := b.Run()
					if len(got) != k {
						t.Fatalf("k=%d batch returned %d results", k, len(got))
					}
					for r := 0; r < k; r++ {
						if !reflect.DeepEqual(want[r], got[r]) {
							t.Errorf("k=%d lane %d diverged from scalar run\nscalar: %s\nbatch:  %s",
								k, r, summarize(want[r]), summarize(got[r]))
						}
					}
				}
			})
		}
	}
}

func summarize(r sim.Result) string {
	return fmt.Sprintf("{power %.9f peak %.9f energy %.9f tempBig %.9f tempDev %.9f fps %.9f active %.9f frames %d drops %d vsyncs %d samples %d}",
		r.AvgPowerW, r.PeakPowerW, r.EnergyJ, r.AvgTempBigC, r.AvgTempDevC, r.AvgFPS, r.ActiveAvgFPS,
		r.FramesDisplayed, r.FramesDropped, r.VSyncs, len(r.Samples))
}
