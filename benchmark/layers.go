package main

// budgetLayers are the layers a budget attributes time to, across both
// hot paths, named by the repository module that owns each. Every
// workload reports <layer>.share for all of them — the layer's time per
// op as a fraction of the untraced end-to-end time per op — so a layer
// a workload never runs reads 0 there.
var budgetLayers = []string{
	// Tick loop.
	"scenario.compile",    // scenario.Compile, timed around the benchmark's call
	"engine.build",        // sim.New / sim.NewBatch, timed around the benchmark's call
	"workload.tick",       // workload.App.Tick (live) or ProfileApp.TickFast (replay)
	"workload.startframe", // workload.App.StartFrame (live) or StartFrameFast (replay)
	"power.eval",          // power.Table.Power (replay; the batch engine's kernel is unexported)
	"thermal.step",        // thermal.Model.Step (replay)
	"thermal.batch_step",  // thermal.Batch.Step (replay)
	"display.tick",        // display.Pipeline.Tick plus frame hand-off (replay)
	"display.fps",         // display.Pipeline.FPS (replay)
	"governor.decide",     // governor.Governor.Decide (live)
	"agent.observe",       // ctrl.Controller.Observe on the Next agent (live)
	"agent.control",       // ctrl.Controller.Control on the Next agent (live)
	// Check-in cycle.
	"http.transport",       // client round trip minus server handler time (live)
	"decode.upload",        // fleetd.DecodeTableSet (replay)
	"store.upload",         // fleetd.Store.UploadDelta/UploadSetGen minus its Merger.Upload (replay)
	"merger.upload",        // cloud.Merger.Upload (replay)
	"store.merge",          // fleetd.Store.MergeSet minus its Merger.Merge (replay)
	"merger.merge",         // cloud.Merger.Merge (replay)
	"encode.policy_binary", // fleetd.EncodePolicy, NXTB, per policy body served (replay)
	"rollout.resolve",      // rollout.Manager.Resolve (replay)
	"rollout.submit",       // cloud.NewArtifact + rollout.Manager.Submit (replay)
}

// layerCounts are the per-layer metrics that are not time shares:
// counts, useful-outcome ratios and run health. Each is reported on
// every workload; where a workload has no such thing it reads 0.
var layerCounts = []struct{ name, unit string }{
	{"unexplained_frac", "frac"},            // 1 - sum of shares: time per op no layer accounts for
	{"trace.overhead_frac", "frac"},         // traced time per op over untraced, minus 1
	{"gc.cycles", "count"},                  // collections during the untraced phase
	{"gc.pause_frac", "frac"},               // stop-the-world pause time over wall time
	{"alloc.per_op", "count"},               // heap allocations per op, whole process
	{"alloc.kb_per_op", "KiB"},              // heap bytes allocated per op, whole process
	{"agent.control_per_op", "count"},       // agent decisions per op
	{"workload.startframe_per_op", "count"}, // frames started per op
	{"merge.dirty_states", "count"},         // states uploaded since the previous merge, mean over the traced merges
	{"delta.fallback_frac", "frac"},         // delta uploads answered 409 and re-sent full
	{"policy.not_modified_frac", "frac"},    // version-aware pulls answered 304
}

// setLayerMetrics reports every per-layer metric: the budget's shares
// and the given counts, 0 for anything the workload did not produce.
func setLayerMetrics(r *Record, rows []BudgetRow, counts map[string]float64) {
	shares := map[string]float64{}
	for _, row := range rows {
		shares[row.Layer] = row.Share
	}
	for _, l := range budgetLayers {
		r.set(l+".share", shares[l], "frac")
	}
	counts["unexplained_frac"] = shares["unexplained"]
	for _, c := range layerCounts {
		r.set(c.name, counts[c.name], c.unit)
	}
}

// processCounts derives the process-wide per-layer counts from an
// untraced phase's before/after snapshots.
func processCounts(before, done processStats, ops int64) map[string]float64 {
	n := float64(max(ops, 1))
	return map[string]float64{
		"gc.cycles":       float64(done.gcs - before.gcs),
		"gc.pause_frac":   float64(done.pauseNs-before.pauseNs) / float64(done.at.Sub(before.at).Nanoseconds()),
		"alloc.per_op":    float64(done.mallocs-before.mallocs) / n,
		"alloc.kb_per_op": float64(done.bytes-before.bytes) / 1024 / n,
	}
}
