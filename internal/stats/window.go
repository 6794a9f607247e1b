package stats

// Summary accumulates count/sum/min/max/peak statistics over an unbounded
// stream. It is used by the metrics recorder for per-session aggregates
// (average power, peak temperature, ...). The zero value is ready to use.
type Summary struct {
	N    int
	Sum  float64
	MinV float64
	MaxV float64
}

// Push folds a sample into the summary.
func (s *Summary) Push(v float64) {
	if s.N == 0 {
		s.MinV, s.MaxV = v, v
	} else {
		if v < s.MinV {
			s.MinV = v
		}
		if v > s.MaxV {
			s.MaxV = v
		}
	}
	s.N++
	s.Sum += v
}

// Mean returns the stream average (0 when empty).
func (s *Summary) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return s.Sum / float64(s.N)
}

// Max returns the largest sample seen (0 when empty).
func (s *Summary) Max() float64 { return s.MaxV }

// Min returns the smallest sample seen (0 when empty).
func (s *Summary) Min() float64 { return s.MinV }
