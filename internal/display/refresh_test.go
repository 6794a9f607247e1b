package display

import "testing"

func TestSetRefreshReArmsVSync(t *testing.T) {
	p := NewPipeline(60)
	if p.periodUS != 16_666 {
		t.Fatalf("60 Hz period = %d", p.periodUS)
	}
	// Run a few VSyncs at 60 Hz with frames queued.
	now := int64(0)
	for i := 0; i < 5; i++ {
		p.OfferFrame()
		now += p.periodUS
		p.Tick(now, true)
	}
	if p.Displayed() != 5 {
		t.Fatalf("displayed %d, want 5", p.Displayed())
	}

	p.SetRefresh(120, now)
	if p.RefreshHz != 120 || p.periodUS != 8_333 {
		t.Fatalf("after switch: %d Hz, period %d", p.RefreshHz, p.periodUS)
	}
	// Flip history survives the switch: FPS still sees the 60 Hz frames.
	if fps := p.FPS(now); fps != 5 {
		t.Fatalf("FPS after switch = %v, want 5 (history preserved)", fps)
	}
	// Next VSync lands one new period after the switch point.
	if n := p.Tick(now+8_332, true); n != 0 {
		t.Fatalf("VSync fired %d periods early", n)
	}
	p.OfferFrame()
	if n := p.Tick(now+8_333, true); n != 1 {
		t.Fatalf("VSync did not fire at the new period (n=%d)", n)
	}
	if p.Displayed() != 6 {
		t.Fatalf("displayed %d, want 6", p.Displayed())
	}

	// No-op switch keeps cadence untouched.
	before := p.RefreshHz
	p.SetRefresh(120, now+1)
	if p.RefreshHz != before {
		t.Fatal("same-rate switch should be a no-op")
	}
}

func TestSetRefreshGrowsFlipRing(t *testing.T) {
	p := NewPipeline(60)
	// Fill the 60-slot ring completely so growth must rotate it.
	now := int64(0)
	for i := 0; i < 70; i++ {
		p.OfferFrame()
		now += p.periodUS
		p.Tick(now, true)
	}
	fpsBefore := p.FPS(now)
	p.SetRefresh(120, now)
	if len(p.flipTimes) < 121 {
		t.Fatalf("ring not grown: %d slots", len(p.flipTimes))
	}
	if got := p.FPS(now); got != fpsBefore {
		t.Fatalf("FPS changed across ring growth: %v → %v", fpsBefore, got)
	}
}

func TestRefreshSchedule(t *testing.T) {
	s, err := NewRefreshSchedule([]RefreshStep{
		{AtUS: 5_000_000, RefreshHz: 120},
		{AtUS: 9_000_000, RefreshHz: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	if got := s.At(0); got != 0 {
		t.Fatalf("before first step At = %d, want 0 (platform default)", got)
	}
	if got := s.At(5_000_000); got != 120 {
		t.Fatalf("At(5s) = %d, want 120", got)
	}
	if got := s.At(10_000_000); got != 60 {
		t.Fatalf("At(10s) = %d, want 60", got)
	}
	s.Start()
	if got := s.At(1); got != 0 {
		t.Fatalf("after restart At(1) = %d, want 0", got)
	}

	if _, err := NewRefreshSchedule(nil); err == nil {
		t.Fatal("empty schedule should fail")
	}
	if _, err := NewRefreshSchedule([]RefreshStep{{AtUS: 0, RefreshHz: 0}}); err == nil {
		t.Fatal("non-positive rate should fail")
	}
	if _, err := NewRefreshSchedule([]RefreshStep{
		{AtUS: 3, RefreshHz: 60}, {AtUS: 3, RefreshHz: 90},
	}); err == nil {
		t.Fatal("duplicate step times should fail")
	}
}
