package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"nextdvfs/internal/session"
	"nextdvfs/internal/workload"
)

// batchTimeline builds a fresh watch/idle/scroll timeline with its own
// app instance — lanes of a batch must never share mutable subsystems,
// so every lane (and every scalar reference) compiles its own copy.
func batchTimeline(secs float64) *session.Timeline {
	third := session.Seconds(secs / 3)
	return &session.Timeline{Scripts: []session.Script{{
		App: workload.YouTube(),
		Phases: []session.Phase{
			{Inter: workload.InterWatch, DurUS: third},
			{Inter: workload.InterIdle, DurUS: third},
			{Inter: workload.InterScroll, DurUS: third},
		},
	}}}
}

// batchGameTimeline is gameTimeline with the structural draw fixed by
// structSeed: equal structSeeds give byte-identical phase structure
// with independent app instances, which is exactly the lockstep
// contract for seed sweeps.
func batchGameTimeline(structSeed int64, secs float64) *session.Timeline {
	rng := rand.New(rand.NewSource(structSeed))
	return &session.Timeline{Scripts: []session.Script{
		session.ForApp(workload.Lineage(), session.Seconds(secs), rng),
	}}
}

func TestBatchValidation(t *testing.T) {
	if _, err := NewBatch(nil); err == nil {
		t.Fatal("empty batch must fail")
	}

	mk := func(seed int64) Config { return Note9Config(batchTimeline(6), seed) }

	t.Run("panel mismatch", func(t *testing.T) {
		a, b := mk(1), mk(2)
		b.Display.SetRefresh(120, 0)
		if _, err := NewBatch([]Config{a, b}); err == nil {
			t.Fatal("differing panel rate must fail")
		}
	})
	t.Run("timeline shape mismatch", func(t *testing.T) {
		a, b := mk(1), mk(2)
		b.Timeline.Scripts[0].Phases = b.Timeline.Scripts[0].Phases[:2]
		if _, err := NewBatch([]Config{a, b}); err == nil {
			t.Fatal("differing phase structure must fail")
		}
	})
	t.Run("shared timeline", func(t *testing.T) {
		a, b := mk(1), mk(2)
		b.Timeline = a.Timeline
		if _, err := NewBatch([]Config{a, b}); err == nil {
			t.Fatal("lanes sharing app instances must fail")
		}
	})
	t.Run("shared chip", func(t *testing.T) {
		a, b := mk(1), mk(2)
		b.Chip = a.Chip
		if _, err := NewBatch([]Config{a, b}); err == nil {
			t.Fatal("lanes sharing a chip must fail")
		}
	})
	t.Run("seed sweep is compatible", func(t *testing.T) {
		if _, err := NewBatch([]Config{mk(1), mk(2), mk(3)}); err != nil {
			t.Fatalf("seed-only sweep rejected: %v", err)
		}
	})
}

func TestBatchSingleLaneMatchesScalar(t *testing.T) {
	mk := func() Config { return Note9Config(batchTimeline(8), 7) }

	e, err := New(mk())
	if err != nil {
		t.Fatal(err)
	}
	want := e.Run()

	b, err := NewBatch([]Config{mk()})
	if err != nil {
		t.Fatal(err)
	}
	got := b.Run()
	if len(got) != 1 {
		t.Fatalf("k=1 batch returned %d results", len(got))
	}
	if !reflect.DeepEqual(want, got[0]) {
		t.Fatalf("k=1 batch diverged from scalar:\nscalar %+v\nbatch  %+v", want, got[0])
	}
}

// TestBatchMixedLanesMatchScalar pins the per-lane freedoms: lanes with
// different seeds, schemes (bare governor vs controller), record
// cadences and fault hooks must each reproduce their scalar run
// byte-for-byte — including across a second Run, which continues each
// lane's rng stream exactly like a scalar engine does.
func TestBatchMixedLanesMatchScalar(t *testing.T) {
	const structSeed = 11
	mutations := []func(*Config){
		func(c *Config) { c.Seed = 1 },
		func(c *Config) { c.Seed = 2 },
		func(c *Config) {
			c.Seed = 3
			c.Controller = &fixedCapController{cluster: "big", idx: 4}
			c.RecordIntervalUS = 250_000
		},
		func(c *Config) {
			c.Seed = 1 // same seed as lane 0, different scheme
			c.Controller = &fixedCapController{cluster: "gpu", idx: 2}
			c.SnapshotFault = func(s *ctrlSnapshotAlias) { s.FPS = 0 }
		},
	}
	mk := func(mut func(*Config)) Config {
		cfg := Note9Config(batchGameTimeline(structSeed, 10), 0)
		mut(&cfg)
		return cfg
	}

	k := len(mutations)
	want := make([][]Result, k)
	for r, mut := range mutations {
		e, err := New(mk(mut))
		if err != nil {
			t.Fatal(err)
		}
		want[r] = []Result{e.Run(), e.Run()}
	}

	cfgs := make([]Config, k)
	for r, mut := range mutations {
		cfgs[r] = mk(mut)
	}
	b, err := NewBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	first := b.Run()
	second := b.Run()
	for r := 0; r < k; r++ {
		if !reflect.DeepEqual(want[r][0], first[r]) {
			t.Errorf("lane %d first run diverged from scalar", r)
		}
		if !reflect.DeepEqual(want[r][1], second[r]) {
			t.Errorf("lane %d second run diverged from scalar", r)
		}
	}
}
