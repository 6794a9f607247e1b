package stats

// Mode returns the most frequent value in samples. Ties are broken toward
// the larger value: when two frame rates are equally common the agent must
// not under-provision the user's session, so the QoS-safe (higher) target
// wins. The second return value is the count of the winning value; it is 0
// if and only if samples is empty.
func Mode(samples []int) (value, count int) {
	if len(samples) == 0 {
		return 0, 0
	}
	counts := make(map[int]int, 16)
	for _, s := range samples {
		counts[s]++
	}
	value = samples[0]
	count = 0
	for v, c := range counts {
		if c > count || (c == count && v > value) {
			value, count = v, c
		}
	}
	return value, count
}

// ModeCounter maintains frequency counts over a fixed-capacity sliding
// window so the mode can be queried without rescanning the window. Push
// evicts the oldest sample once the window is full, exactly mirroring the
// paper's 160-sample (4 s at 25 ms) frame window.
//
// The zero value is not usable; construct with NewModeCounter.
type ModeCounter struct {
	window []int
	counts map[int]int
	head   int
	filled bool
	sum    int64
}

// NewModeCounter returns a counter over a sliding window of size n.
// n must be positive.
func NewModeCounter(n int) *ModeCounter {
	if n <= 0 {
		panic("stats: ModeCounter window size must be positive")
	}
	return &ModeCounter{
		window: make([]int, n),
		counts: make(map[int]int, 64),
	}
}

// Push adds a sample, evicting the oldest one if the window is full.
func (m *ModeCounter) Push(v int) {
	if m.filled {
		old := m.window[m.head]
		if c := m.counts[old]; c <= 1 {
			delete(m.counts, old)
		} else {
			m.counts[old] = c - 1
		}
		m.sum -= int64(old)
	}
	m.window[m.head] = v
	m.counts[v]++
	m.sum += int64(v)
	m.head++
	if m.head == len(m.window) {
		m.head = 0
		m.filled = true
	}
}

// Mean returns the window average (0 when empty). It exists for the
// mean-vs-mode targeting ablation: the paper argues the mode captures
// the user's dominant frame-rate need where a mean is dragged by
// transients.
func (m *ModeCounter) Mean() float64 {
	n := m.Len()
	if n == 0 {
		return 0
	}
	return float64(m.sum) / float64(n)
}

// Len reports how many samples are currently in the window.
func (m *ModeCounter) Len() int {
	if m.filled {
		return len(m.window)
	}
	return m.head
}

// Cap reports the window capacity.
func (m *ModeCounter) Cap() int { return len(m.window) }

// Mode returns the most frequent sample in the window with the same
// QoS-safe tie-breaking as the package-level Mode function.
func (m *ModeCounter) Mode() (value, count int) {
	for v, c := range m.counts {
		if c > count || (c == count && v > value) {
			value, count = v, c
		}
	}
	return value, count
}

// Reset empties the window.
func (m *ModeCounter) Reset() {
	m.head = 0
	m.filled = false
	m.sum = 0
	clear(m.counts)
}
