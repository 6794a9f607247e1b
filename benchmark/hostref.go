package main

import (
	"crypto/sha256"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// The hosts this benchmark runs on are shared, and their speed drifts:
// identical simulator work swings up to 2x between 2-second windows and
// for minutes at a time. A fixed chunk of standard-library work, timed
// between units of the workload, slows down with it — a run's median
// chunk time tracks the host's speed during that run. Every timing
// metric is scaled to the speed of the host the benchmark was defined
// on: times by the host speed, rates by its inverse. The host speed is
// (refNominalNS / median chunk time)^elasticity, where a workload's
// elasticity says how much more strongly its own speed follows the
// host's than the chunk's does (see workloads in main.go).
//
// The chunk must not see the program under test, or a change that made
// the program slower would also make the host look slower and cancel
// part of its own regression. So the chunk uses no repository code,
// allocates nothing (no collector assists), and runs only at quiescent
// points, outside the timed intervals: between simulated seconds in the
// single-goroutine sim workloads, at the round barriers of the fleet
// workloads when no request is in flight, and between set-up
// repetitions. Each unit of work is scaled by the chunks nearest it, so
// the scaling follows the host's drift within a run. The unscaled values
// stay in each record's info.

// refNominalNS is the chunk's median time on the defining host (a
// 2-vCPU Xeon container, Go 1.24).
const refNominalNS = 20_000

// hostRef times the reference chunk. Not safe for concurrent use: each
// goroutine that runs chunks owns one.
type hostRef struct {
	rng     *rand.Rand
	ints    []int
	buf     []byte
	m       map[int]int
	samples []float64 // ns per chunk
	sink    byte

	elasticity float64
}

func newHostRef(seed int64, elasticity float64) *hostRef {
	h := &hostRef{rng: rand.New(rand.NewSource(seed)), ints: make([]int, 256), buf: make([]byte, 512),
		m: make(map[int]int, 64), samples: make([]float64, 0, 1<<12), elasticity: elasticity}
	h.rng.Read(h.buf)
	return h
}

// run executes and times one chunk: sort, map inserts and lookups, and
// a hash — integer, branchy and memory work like the layers under test.
func (h *hostRef) run() time.Duration {
	start := time.Now()
	for i := range h.ints {
		h.ints[i] = h.rng.Int()
	}
	sort.Ints(h.ints)
	clear(h.m)
	for i := 0; i < 64; i++ {
		h.m[h.ints[i*3]] = i
	}
	s := 0
	for _, v := range h.ints {
		s += h.m[v]
	}
	sum := sha256.Sum256(h.buf)
	h.sink ^= sum[0] ^ byte(s)
	d := time.Since(start)
	h.samples = append(h.samples, float64(d))
	return d
}

// refsPerBarrier is how many chunks run at each quiescent point.
const refsPerBarrier = 16

// runN runs n chunks back to back and returns their total time.
func (h *hostRef) runN(n int) time.Duration {
	var d time.Duration
	for i := 0; i < n; i++ {
		d += h.run()
	}
	return d
}

// hostSpeed is how much faster than the defining host the chunks in
// samples ran: refNominalNS over their median time (1 with no chunks).
func hostSpeed(samples []float64) float64 {
	if len(samples) == 0 {
		return 1
	}
	return refNominalNS / percentile(sortedCopy(samples), 0.5)
}

// speed is the host speed for the workload while chunks lo..hi ran.
func (h *hostRef) speed(lo, hi int) float64 {
	return math.Pow(hostSpeed(h.samples[lo:hi]), h.elasticity)
}

// setScaled reports a timing metric scaled to the defining host's speed
// and keeps the measured value in info.
func (r *Record) setScaled(name string, measured, speed float64, unit string, rate bool) {
	r.info("measured."+name, measured, unit)
	if rate {
		r.set(name, measured/speed, unit)
	} else {
		r.set(name, measured*speed, unit)
	}
}

// setupTimer times set-up repetitions, with reference chunks before the
// first and after each. Each repetition is scaled by the chunks on
// either side of it.
type setupTimer struct {
	ref              *hostRef
	measured, scaled []float64 // seconds per repetition
}

func newSetupTimer(p Params) *setupTimer {
	t := &setupTimer{ref: newHostRef(p.Seed, p.Elasticity)}
	t.ref.runN(refsPerBarrier)
	return t
}

// time runs one set-up repetition, after a collection so that each
// starts from the same heap.
func (t *setupTimer) time(setup func() error) error {
	runtime.GC()
	start := time.Now()
	if err := setup(); err != nil {
		return err
	}
	s := time.Since(start).Seconds()
	t.ref.runN(refsPerBarrier)
	n := len(t.ref.samples)
	speed := t.ref.speed(n-2*refsPerBarrier, n)
	t.measured = append(t.measured, s)
	t.scaled = append(t.scaled, s*speed)
	return nil
}

// report sets setup_s, the median scaled repetition.
func (t *setupTimer) report(r *Record) {
	measured, scaled := percentile(sortedCopy(t.measured), 0.5), percentile(sortedCopy(t.scaled), 0.5)
	r.info("measured.setup_s", measured, "s")
	r.set("setup_s", scaled, "s")
	r.info("host_speed.setup", scaled/measured, "x")
}
