package main

import (
	"fmt"
	"time"

	"nextdvfs/internal/display"
	"nextdvfs/internal/frand"
	"nextdvfs/internal/power"
	"nextdvfs/internal/scenario"
	"nextdvfs/internal/session"
	"nextdvfs/internal/thermal"
	"nextdvfs/internal/workload"
)

// replayMin is how long each replay loop runs at least: 50 ms, less
// for runs too short to afford that.
func replayMin(run time.Duration) time.Duration { return min(50*time.Millisecond, run/20) }

// walkCap bounds the ticks replayed per preset.
const walkCap = 500_000

// traced runs the traced phase: the same units of work as the untraced
// phase with every interface-typed layer wrapped, then the replays of
// the concrete layers, and turns both into the per-layer budget.
func (s *simRun) traced(d time.Duration, batched bool, untraced measured, untracedDigests []string) error {
	tr := newTracer()
	for _, n := range []string{"governor.decide", "agent.observe", "agent.control", "workload.startframe"} {
		tr.layer(n, 1)
	}
	tr.layer("workload.tick", 8)
	s.compile, s.build = tr.layer("scenario.compile", 1), tr.layer("engine.build", 1)
	s.tr = tr
	var digests []string
	tm, err := s.timed(func() error {
		var err error
		if batched {
			digests, _, _, err = s.sweepPhase(d, false)
		} else {
			digests, _, err = s.gridPhase(d, false)
		}
		return err
	})
	s.tr = nil
	if err != nil {
		return err
	}
	s.rec.Attempted += tm.ops
	// Wrapping must not change a single bit of any result.
	for i := 0; i < min(len(digests), len(untracedDigests)); i++ {
		if digests[i] != untracedDigests[i] {
			s.rec.fail("traced unit %d differs from the untraced run", i)
		}
	}
	s.rec.info("traced_units_compared", float64(min(len(digests), len(untracedDigests))), "count")

	rp, err := s.replay(batched)
	if err != nil {
		return err
	}
	opsT := float64(max(tm.ops, 1))
	perOp := func(name string) float64 { return float64(tr.calls(name)) / opsT }
	live := func(name, source string) BudgetRow {
		return BudgetRow{Layer: name, Source: source, NsPerCall: tr.nsPerCall(name), CallsPerOp: perOp(name)}
	}
	rows := []BudgetRow{live("scenario.compile", "bench"), live("engine.build", "bench"), live("governor.decide", "live")}
	k := float64(s.p.Lanes)
	framesPerOp := perOp("workload.startframe")
	if batched {
		framesPerOp = rp.framesPerTick * 1000 * k
		rows = append(rows,
			BudgetRow{Layer: "workload.tick", Source: "replay", NsPerCall: rp.ns["workload.tick"], CallsPerOp: 1000 * k},
			BudgetRow{Layer: "workload.startframe", Source: "replay", NsPerCall: rp.ns["workload.startframe"], CallsPerOp: framesPerOp},
			BudgetRow{Layer: "thermal.batch_step", Source: "replay", NsPerCall: rp.ns["thermal.batch_step"], CallsPerOp: 1000},
			BudgetRow{Layer: "display.tick", Source: "replay", NsPerCall: rp.ns["display.tick"], CallsPerOp: 1000 * k},
			BudgetRow{Layer: "display.fps", Source: "replay", NsPerCall: rp.ns["display.fps"], CallsPerOp: 1000 * k})
	} else {
		rows = append(rows,
			live("workload.tick", "live"), live("workload.startframe", "live"),
			live("agent.observe", "live"), live("agent.control", "live"),
			BudgetRow{Layer: "power.eval", Source: "replay", NsPerCall: rp.ns["power.eval"], CallsPerOp: float64(rp.clusters) * 1000},
			BudgetRow{Layer: "thermal.step", Source: "replay", NsPerCall: rp.ns["thermal.step"], CallsPerOp: 1000},
			BudgetRow{Layer: "display.tick", Source: "replay", NsPerCall: rp.ns["display.tick"], CallsPerOp: 1000},
			BudgetRow{Layer: "display.fps", Source: "replay", NsPerCall: rp.ns["display.fps"], CallsPerOp: 1000})
	}
	e2e := float64(untraced.elapsed.Nanoseconds()) / float64(max(untraced.ops, 1))
	tracedOp := float64(tm.elapsed.Nanoseconds()) / opsT
	s.rec.Budget = budget(rows, e2e)
	counts := processCounts(untraced.before, untraced.done, untraced.ops)
	counts["trace.overhead_frac"] = tracedOp/e2e - 1
	counts["agent.control_per_op"] = perOp("agent.control")
	counts["workload.startframe_per_op"] = framesPerOp
	setLayerMetrics(s.rec, s.rec.Budget, counts)
	return tr.writeChrome(s.p.SpanFile)
}

// simReplay holds the replayed layers' cost per call.
type simReplay struct {
	ns            map[string]float64
	framesPerTick float64
	clusters      int
}

// replay times the layers the engines call on concrete types — the
// workload fast path, display pipeline, thermal network and power
// tables — on inputs the traced phase fed them: the same compiled
// timelines walked tick by tick, and the power-table inputs the
// governor probe sampled.
func (s *simRun) replay(batched bool) (simReplay, error) {
	rp := simReplay{ns: map[string]float64{}}
	rmin := replayMin(s.p.Duration)
	var want []bool
	var frames []pendingFrame
	var walkNS, cursorNS float64
	for i := range s.names {
		scn := scenario.Scaled(scenario.MustGet(s.names[i]), s.p.Scale)
		w, err := walkWorkload(scn, s.p.Seed, s.plat.AmbientC)
		if err != nil {
			return rp, err
		}
		want = append(want, w.want...)
		frames = append(frames, w.frames...)
		walkNS += w.walkNS
		cursorNS += w.cursorNS
	}
	if len(want) == 0 {
		return rp, fmt.Errorf("replay walked no ticks")
	}
	sf := 0.0
	if len(frames) > 0 {
		sf = blockNS(rmin, len(frames), func() {
			for _, f := range frames {
				f.app.StartFrameFast(f.inter, f.rng)
			}
		})
	}
	n := float64(len(want))
	rp.ns["workload.startframe"] = sf
	rp.ns["workload.tick"] = max((walkNS-cursorNS-float64(len(frames))*sf)/n, 0)
	rp.framesPerTick = float64(len(frames)) / n

	hz := s.plat.RefreshHz
	tickOnly := blockNS(rmin, len(want), func() { displayPass(hz, want, false) })
	withFPS := blockNS(rmin, len(want), func() { displayPass(hz, want, true) })
	rp.ns["display.tick"] = tickOnly
	rp.ns["display.fps"] = max(withFPS-tickOnly, 0)

	chip, pm := s.plat.NewChip(), s.plat.NewPower()
	rp.clusters = len(chip.Clusters)
	calls := s.recorder.calls
	if len(calls) == 0 {
		return rp, fmt.Errorf("replay has no recorded power-table inputs")
	}
	tbls := make([]*power.Table, len(chip.Clusters))
	for i, c := range chip.Clusters {
		tbls[i] = pm.Table(c)
	}
	const tempC = 45.0
	var sink float64
	rp.ns["power.eval"] = blockNS(rmin, len(calls), func() {
		for _, c := range calls {
			sink += tbls[c.cluster].Power(c.opp, c.util, tempC)
		}
	})

	// Thermal inputs: per-node power vectors assembled from the
	// recorded cluster powers.
	m := s.plat.NewThermal(s.plat.AmbientC)
	nodes := m.NumNodes()
	const ring = 64
	vecs := make([][]float64, ring)
	for j := range vecs {
		v := make([]float64, nodes)
		for i, c := range chip.Clusters {
			if idx, ok := m.Index(c.Name); ok {
				call := calls[(j*len(chip.Clusters)+i)%len(calls)]
				v[idx] += tbls[call.cluster].Power(call.opp, call.util, tempC)
			}
		}
		vecs[j] = v
	}
	const steps = 100_000
	if batched {
		k := s.p.Lanes
		b := thermal.NewBatch(m, k)
		bvecs := make([][]float64, ring)
		for j, v := range vecs {
			bv := make([]float64, nodes*k)
			for node := 0; node < nodes; node++ {
				for r := 0; r < k; r++ {
					bv[node*k+r] = v[node]
				}
			}
			bvecs[j] = bv
		}
		rp.ns["thermal.batch_step"] = blockNS(rmin, steps, func() {
			for i := 0; i < steps; i++ {
				b.Step(0.001, bvecs[i%ring])
			}
		})
	} else {
		rp.ns["thermal.step"] = blockNS(rmin, steps, func() {
			for i := 0; i < steps; i++ {
				m.Step(0.001, vecs[i%ring])
			}
		})
	}
	if sink == 0 {
		return rp, fmt.Errorf("power replay produced no power")
	}
	return rp, nil
}

// pendingFrame is one frame start seen during a walk, replayed to time
// StartFrameFast on its own.
type pendingFrame struct {
	app   *workload.ProfileApp
	inter workload.Interaction
	rng   *frand.Rand
}

type walked struct {
	want             []bool
	frames           []pendingFrame
	walkNS, cursorNS float64
}

// walkWorkload drives a compiled scenario's apps tick by tick through
// the devirtualized fast path the batch engine uses, timing the walk
// and a cursor-only walk of the same timeline, and records which ticks
// wanted a frame.
func walkWorkload(scn scenario.Scenario, seed int64, ambientC float64) (walked, error) {
	compiled, err := scenario.Compile(scn, seed, ambientC)
	if err != nil {
		return walked{}, err
	}
	tl := compiled.Timeline
	apps := make([]*workload.ProfileApp, len(tl.Scripts))
	for i, sc := range tl.Scripts {
		pa, ok := sc.App.(*workload.ProfileApp)
		if !ok {
			return walked{}, fmt.Errorf("scenario %s: app %s has no fast path", scn.Name, sc.App.Name())
		}
		apps[i] = pa
	}
	var w walked
	cur := session.NewCursor(tl)
	start := time.Now()
	for now := int64(1000); len(w.want) < walkCap; now += 1000 {
		_, _, _, ok := cur.At(now)
		if !ok {
			break
		}
		w.want = append(w.want, false)
	}
	w.cursorNS = float64(time.Since(start).Nanoseconds())
	w.want = w.want[:0]
	cur.Rewind()
	rng := frand.New(seed)
	start = time.Now()
	for now := int64(1000); len(w.want) < walkCap; now += 1000 {
		_, inter, entered, ok := cur.At(now)
		if !ok {
			break
		}
		app := apps[cur.ScriptIndex()]
		if entered {
			app.Reset()
		}
		d := app.TickFast(now, 1000, inter, rng)
		if d.WantFrame {
			app.StartFrameFast(inter, rng)
			w.frames = append(w.frames, pendingFrame{app, inter, rng})
		}
		w.want = append(w.want, d.WantFrame)
	}
	w.walkNS = float64(time.Since(start).Nanoseconds())
	return w, nil
}

// displayPass runs a fresh panel pipeline over a want-frame sequence,
// handing it each wanted frame as the renderer would.
func displayPass(hz int, want []bool, fps bool) {
	p := display.NewPipeline(hz)
	for i, wf := range want {
		now := int64(i+1) * 1000
		if wf && p.BackBufferFree() {
			p.OfferFrame()
		}
		p.Tick(now, wf)
		if fps {
			p.FPS(now)
		}
	}
}
