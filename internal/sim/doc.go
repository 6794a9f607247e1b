// Package sim is the discrete-time simulation engine that wires the
// substrates together: the SoC's DVFS clusters, the power and thermal
// models, the VSync display pipeline, an application workload driven by
// a user-interaction timeline, a frequency governor and (optionally) a
// management controller such as the Next agent or Int. QoS PM.
//
// Time advances in fixed ticks (default 1 ms) expressed in microseconds.
// Each tick:
//
//  1. the session cursor resolves the active app and interaction;
//  2. the app produces its demand (frame pending? background load?);
//  3. the two-stage frame renderer drains CPU then GPU work and offers
//     completed frames to the display pipeline (back-pressure applies);
//  4. per-cluster utilization, power and temperatures integrate;
//  5. VSync events flip or drop frames;
//  6. on their own cadences, the governor picks OPPs from utilization
//     and the controller observes (25 ms for Next) and acts (100 ms).
//
// One engine core (lanes.go) holds k lanes of this state and does
// steps 1, 3, 5 and 6 and the Result for both engines. Engine is the
// core at k=1 with scalar kernels for steps 2 and 4; BatchEngine is the
// core at width k with batched kernels (a devirtualized workload
// stream, an AVX2 power sweep, a node-major thermal step). Each lane of
// a batch is bit-identical to the scalar run of its config.
//
// All stochastic draws flow from one seeded source per lane, so runs
// are reproducible bit-for-bit.
package sim
