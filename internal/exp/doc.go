// Package exp contains one runner per figure of the paper's evaluation,
// each returning a structured result that cmd/nextbench prints and the
// root bench_test.go wraps in testing.B benchmarks:
//
//	Fig1On — FPS + big/LITTLE frequency trace of the home→Facebook→
//	         Spotify session under schedutil (the motivation figure);
//	Fig3On — power and big-CPU temperature for the same session,
//	         schedutil vs a trained Next agent;
//	Fig4On — the PPDW-vs-FPS trend on Lineage 2 Revolution, including
//	         the worst-case anchors at FPS 0/1/10;
//	Fig6   — training time vs FPS state-granularity, online vs cloud;
//	Evaluate (Fig. 7/8) — average power and peak temperatures per
//	         application for schedutil, Next and Int. QoS PM (games
//	         only).
//
// Beyond the figures, the package hosts the registry-driven grids:
// ScenarioGrid (scenario × platform × scheme × learner cells, each an
// exp.Cell run as its own job through the batch pool), SeedSweep and LearnerGrid, plus the
// management-scheme registry (Schemes) that every surface — grids,
// facade, CLIs — resolves names through.
//
// It also owns the session recipe every driver in the module shares:
// ScenarioConfig turns a scenario into a sim.Config (structure and
// engine seeds apart, so lockstep lanes can share structure),
// NewDefaultAgent builds the platform's default agent, and
// session.AppTimeline is the single-app session. The facade and the
// CLIs build their sessions through these and call sim.New or
// sim.NewBatch themselves; internal/fleetsim's homogeneous fleet needs
// only NewDefaultAgent and session.AppTimeline on sim.New. exp exports
// no single-run wrapper.
//
// Runners are deterministic given their seed.
package exp
