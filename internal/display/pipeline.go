package display

import "fmt"

// BackBuffers is the number of back buffers in Android's triple-buffered
// VSync scheme (1 front + 2 back).
const BackBuffers = 2

// Pipeline is the VSync-synchronized display path. Time is expressed in
// microseconds of simulation time; the engine calls Tick once per
// simulation step with the current timestamp and whether the workload
// currently wants frames on screen (drops are only counted when a frame
// was actually expected).
type Pipeline struct {
	RefreshHz int

	periodUS  int64
	nextVSync int64
	queued    int // completed frames waiting in back buffers
	displayed int64
	dropped   int64
	vsyncs    int64
	flipTimes []int64 // ring of recent front-buffer update times
	flipHead  int
	flipCount int
	horizonUS int64

	// Trailing-window cursor for the per-tick FPS query. flipSeq counts
	// every flip ever recorded; winStart is the sequence number of the
	// oldest flip still inside the trailing horizon as of the latest
	// monotonic FPS call, so the hot path is an O(1)-amortized eviction
	// walk instead of a full ring scan. maxNowUS/lastFlipUS gate the
	// fast path: a query older than either falls back to the exact scan
	// (the cursor only ever moves forward in time).
	flipSeq    int64
	winStart   int64
	maxNowUS   int64
	lastFlipUS int64
}

// NewPipeline returns a pipeline refreshing at refreshHz (60 for the
// Note 9 panel; the paper notes 90/120 Hz panels exist and the model
// supports them).
func NewPipeline(refreshHz int) *Pipeline {
	if refreshHz <= 0 {
		panic(fmt.Sprintf("display: refresh rate must be positive, got %d", refreshHz))
	}
	p := &Pipeline{
		RefreshHz: refreshHz,
		periodUS:  int64(1_000_000 / refreshHz),
		horizonUS: 1_000_000,
	}
	p.nextVSync = p.periodUS
	// Ring sized for the highest rate we expect within the horizon.
	p.flipTimes = make([]int64, refreshHz+1)
	return p
}

// BackBufferFree reports whether a renderer may start another frame.
func (p *Pipeline) BackBufferFree() bool { return p.queued < BackBuffers }

// OfferFrame places a completed frame into a back buffer. It returns
// false (and discards nothing) when both back buffers are already full —
// the renderer must stall, which is exactly the back-pressure VSync
// applies to a fast producer.
func (p *Pipeline) OfferFrame() bool {
	if p.queued >= BackBuffers {
		return false
	}
	p.queued++
	return true
}

// Tick processes any VSync events that have become due at nowUS.
// expecting reports whether the workload currently has a frame in flight
// or pending demand; a VSync that finds no completed frame counts as a
// drop only when expecting is true (an idle home screen repeating its
// front buffer is not stutter).
//
// It returns the number of VSync events processed this call (0 or 1 for
// ticks shorter than the refresh period).
func (p *Pipeline) Tick(nowUS int64, expecting bool) int {
	n := 0
	for nowUS >= p.nextVSync {
		p.vsyncs++
		if p.queued > 0 {
			p.queued--
			p.displayed++
			p.recordFlip(p.nextVSync)
		} else if expecting {
			p.dropped++
		}
		p.nextVSync += p.periodUS
		n++
	}
	return n
}

func (p *Pipeline) recordFlip(atUS int64) {
	p.flipTimes[p.flipHead] = atUS
	p.flipHead++
	if p.flipHead == len(p.flipTimes) {
		p.flipHead = 0
	}
	if p.flipCount < len(p.flipTimes) {
		p.flipCount++
	}
	p.flipSeq++
	p.lastFlipUS = atUS
}

// slot maps a flip sequence number onto its ring index. Valid for the
// retained sequences [flipSeq-flipCount, flipSeq).
func (p *Pipeline) slot(seq int64) int {
	i := p.flipHead - int(p.flipSeq-seq)
	if i < 0 {
		i += len(p.flipTimes)
	}
	return i
}

// FPS returns the frame rate over the trailing one-second horizon ending
// at nowUS: the number of front-buffer updates with timestamps in
// (nowUS-1s, nowUS]. This is the instantaneous frame rate the Next agent
// samples every 25 ms.
//
// Queries at non-decreasing times (the engine's tick loop) are O(1)
// amortized: flips are recorded in time order, so the window cursor
// only ever evicts from the old end. A query older than a previous one
// (or older than the newest flip) takes the exact full-ring scan
// instead — same count either way.
func (p *Pipeline) FPS(nowUS int64) float64 {
	cutoff := nowUS - p.horizonUS
	if nowUS >= p.maxNowUS && nowUS >= p.lastFlipUS {
		p.maxNowUS = nowUS
		// Flips overwritten in the ring are gone from the countable set
		// regardless of age; the ring is sized to hold a full horizon at
		// the panel's peak rate, so this clamp only bites callers that
		// let far more than a second of flips pile up between queries.
		if lo := p.flipSeq - int64(p.flipCount); p.winStart < lo {
			p.winStart = lo
		}
		for p.winStart < p.flipSeq && p.flipTimes[p.slot(p.winStart)] <= cutoff {
			p.winStart++
		}
		return float64(p.flipSeq - p.winStart)
	}
	n := 0
	for i := 0; i < p.flipCount; i++ {
		if t := p.flipTimes[i]; t > cutoff && t <= nowUS {
			n++
		}
	}
	return float64(n)
}

// Displayed returns the total number of frames shown.
func (p *Pipeline) Displayed() int64 { return p.displayed }

// Dropped returns the total number of missed-VSync drops.
func (p *Pipeline) Dropped() int64 { return p.dropped }

// VSyncs returns the total number of refresh events processed.
func (p *Pipeline) VSyncs() int64 { return p.vsyncs }

// Queued returns the number of completed frames waiting in back buffers.
func (p *Pipeline) Queued() int { return p.queued }

// Reset restores the pipeline to its initial state.
func (p *Pipeline) Reset() {
	p.nextVSync = p.periodUS
	p.queued = 0
	p.displayed = 0
	p.dropped = 0
	p.vsyncs = 0
	p.flipHead = 0
	p.flipCount = 0
	p.flipSeq = 0
	p.winStart = 0
	p.maxNowUS = 0
	p.lastFlipUS = 0
	for i := range p.flipTimes {
		p.flipTimes[i] = 0
	}
}
