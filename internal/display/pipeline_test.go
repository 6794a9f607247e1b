package display

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVSyncCadence60Hz(t *testing.T) {
	p := NewPipeline(60)
	if p.periodUS != 16_666 {
		t.Fatalf("period = %d µs, want 16666", p.periodUS)
	}
	// One second of 1 ms ticks → 60 VSyncs (with the integer period,
	// 1e6/16666 = 60.0024 → 60).
	total := 0
	for now := int64(1000); now <= 1_000_000; now += 1000 {
		total += p.Tick(now, false)
	}
	if total != 60 {
		t.Fatalf("vsyncs in 1 s = %d, want 60", total)
	}
}

func TestPerfectProducerHits60FPS(t *testing.T) {
	p := NewPipeline(60)
	for now := int64(1000); now <= 2_000_000; now += 1000 {
		if p.BackBufferFree() {
			p.OfferFrame()
		}
		p.Tick(now, true)
	}
	if got := p.FPS(2_000_000); got != 60 {
		t.Fatalf("FPS = %g, want 60", got)
	}
	if p.Dropped() != 0 {
		t.Fatalf("drops = %d, want 0", p.Dropped())
	}
}

func TestFPSNeverExceedsRefreshRate(t *testing.T) {
	// Property: however frames are offered, displayed FPS <= refresh Hz.
	rng := rand.New(rand.NewSource(6))
	f := func(offers []bool) bool {
		p := NewPipeline(60)
		now := int64(0)
		i := 0
		for now < 3_000_000 {
			now += 1000
			// Offer up to two frames per tick according to the fuzz input.
			for k := 0; k < 2; k++ {
				if i < len(offers) && offers[i] {
					p.OfferFrame()
				}
				i++
			}
			p.Tick(now, true)
			if p.FPS(now) > 60 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestBackPressure(t *testing.T) {
	p := NewPipeline(60)
	if !p.OfferFrame() || !p.OfferFrame() {
		t.Fatal("two back buffers should accept frames")
	}
	if p.OfferFrame() {
		t.Fatal("third offer must be rejected (only 2 back buffers)")
	}
	if p.BackBufferFree() {
		t.Fatal("back buffers should be full")
	}
	p.Tick(16_666, true) // one flip frees one buffer
	if !p.BackBufferFree() {
		t.Fatal("a buffer should be free after VSync consumed a frame")
	}
}

func TestDropsOnlyCountWhenExpecting(t *testing.T) {
	p := NewPipeline(60)
	// 30 VSyncs of idle screen: no drops.
	for now := int64(1000); now <= 500_000; now += 1000 {
		p.Tick(now, false)
	}
	if p.Dropped() != 0 {
		t.Fatalf("idle drops = %d, want 0", p.Dropped())
	}
	// 30 VSyncs with demand but no frames: all drops.
	before := p.VSyncs()
	for now := int64(501_000); now <= 1_000_000; now += 1000 {
		p.Tick(now, true)
	}
	missed := p.VSyncs() - before
	if p.Dropped() != missed {
		t.Fatalf("drops = %d, want %d (every expected VSync missed)", p.Dropped(), missed)
	}
}

func TestHalfRateProducerGets30FPS(t *testing.T) {
	p := NewPipeline(60)
	// Offer a frame every 33.3 ms (video-style cadence).
	nextFrame := int64(33_333)
	for now := int64(1000); now <= 2_000_000; now += 1000 {
		if now >= nextFrame {
			p.OfferFrame()
			nextFrame += 33_333
		}
		p.Tick(now, true)
	}
	got := p.FPS(2_000_000)
	if got < 28 || got > 32 {
		t.Fatalf("FPS = %g, want ≈30", got)
	}
}

func TestFPSDecaysAfterProducerStops(t *testing.T) {
	p := NewPipeline(60)
	now := int64(0)
	for ; now <= 1_000_000; now += 1000 {
		if p.BackBufferFree() {
			p.OfferFrame()
		}
		p.Tick(now, true)
	}
	if p.FPS(now) < 55 {
		t.Fatalf("warm FPS = %g", p.FPS(now))
	}
	// Producer stops; a second later FPS must be 0.
	for ; now <= 2_100_000; now += 1000 {
		p.Tick(now, false)
	}
	if got := p.FPS(now); got != 0 {
		t.Fatalf("FPS after stop = %g, want 0", got)
	}
}

func TestHighRefreshPanels(t *testing.T) {
	// The paper mentions 90/120 Hz panels; the pipeline must support them.
	for _, hz := range []int{90, 120} {
		p := NewPipeline(hz)
		for now := int64(500); now <= 2_000_000; now += 500 {
			if p.BackBufferFree() {
				p.OfferFrame()
			}
			p.Tick(now, true)
		}
		got := p.FPS(2_000_000)
		if got < float64(hz)-2 || got > float64(hz) {
			t.Fatalf("%d Hz panel FPS = %g", hz, got)
		}
	}
}

func TestDisplayedPlusDroppedNeverExceedsVSyncs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed uint32) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		p := NewPipeline(60)
		for now := int64(1000); now <= 1_000_000; now += 1000 {
			if r.Intn(3) == 0 && p.BackBufferFree() {
				p.OfferFrame()
			}
			p.Tick(now, r.Intn(2) == 0)
		}
		return p.Displayed()+p.Dropped() <= p.VSyncs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestReset(t *testing.T) {
	p := NewPipeline(60)
	p.OfferFrame()
	p.Tick(20_000, true)
	p.Reset()
	if p.Displayed() != 0 || p.Dropped() != 0 || p.VSyncs() != 0 || p.Queued() != 0 {
		t.Fatal("reset did not clear counters")
	}
	if p.FPS(1_000_000) != 0 {
		t.Fatal("reset did not clear FPS history")
	}
}

func TestNewPipelinePanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPipeline(0)
}
