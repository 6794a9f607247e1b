package thermal

import "testing"

func TestAmbientScheduleSteps(t *testing.T) {
	s, err := NewAmbientSchedule([]AmbientStep{
		{AtUS: 10_000_000, AmbientC: 35},
		{AtUS: 0, AmbientC: 21},
		{AtUS: 20_000_000, AmbientC: 18},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	cases := []struct {
		atUS int64
		want float64
	}{
		{0, 21}, {9_999_999, 21}, {10_000_000, 35}, {15_000_000, 35},
		{20_000_000, 18}, {1 << 40, 18},
	}
	for _, c := range cases {
		if got := s.At(c.atUS); got != c.want {
			t.Fatalf("At(%d) = %v, want %v", c.atUS, got, c.want)
		}
	}
	// Restartable: a second run sees the same values.
	s.Start()
	if got := s.At(0); got != 21 {
		t.Fatalf("after restart At(0) = %v, want 21", got)
	}
}

func TestAmbientScheduleValidation(t *testing.T) {
	if _, err := NewAmbientSchedule(nil); err == nil {
		t.Fatal("empty schedule should fail")
	}
	if _, err := NewAmbientSchedule([]AmbientStep{{AtUS: 5, AmbientC: 21}}); err == nil {
		t.Fatal("schedule without a time-0 step should fail")
	}
	if _, err := NewAmbientSchedule([]AmbientStep{
		{AtUS: 0, AmbientC: 21}, {AtUS: 7, AmbientC: 22}, {AtUS: 7, AmbientC: 23},
	}); err == nil {
		t.Fatal("duplicate step times should fail")
	}
}

func TestAmbientScheduleDrivesModel(t *testing.T) {
	m := Note9(21)
	sched, err := NewAmbientSchedule([]AmbientStep{
		{AtUS: 0, AmbientC: 21},
		{AtUS: 1_000_000, AmbientC: 35},
	})
	if err != nil {
		t.Fatal(err)
	}
	sched.Start()
	m.AmbientC = sched.At(0)
	m.Reset()
	zero := make([]float64, m.NumNodes())
	// With no injected power the network relaxes toward whatever the
	// schedule says ambient currently is.
	// The skin's time constant is ≈143 s; give it ~3τ past the step.
	for now := int64(0); now < 450_000_000; now += 5000 {
		m.AmbientC = sched.At(now)
		m.Step(0.005, zero)
	}
	if got := m.TempC(m.MustIndex(NodeSkin)); got < 32 {
		t.Fatalf("skin should warm toward the 35 °C ambient, got %.2f", got)
	}
}
