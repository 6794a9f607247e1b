package governor

import (
	"testing"

	"nextdvfs/internal/soc"
)

func TestPerformanceGovernor(t *testing.T) {
	chip := soc.GenericPhone()
	g := Performance{}
	for _, c := range chip.Clusters {
		c.SetCur(0)
	}
	g.Decide(0, obsFor(chip, nil))
	for _, c := range chip.Clusters {
		if c.Cur() != c.Cap() {
			t.Errorf("%s not at cap", c.Name)
		}
	}
	// Honors a lowered cap.
	big := chip.Cluster(soc.ClusterBig)
	big.SetCap(1)
	g.Decide(0, obsFor(chip, nil))
	if big.Cur() != 1 {
		t.Error("performance should sit at the cap, not the table top")
	}
}

func TestPowersaveGovernor(t *testing.T) {
	chip := soc.GenericPhone()
	g := Powersave{}
	g.Decide(0, obsFor(chip, nil))
	for _, c := range chip.Clusters {
		if c.Cur() != c.Floor() {
			t.Errorf("%s not at floor", c.Name)
		}
	}
}

func TestGovernorNamesAndIntervals(t *testing.T) {
	for _, g := range []Governor{
		&Schedutil{}, Performance{}, Powersave{},
	} {
		if g.Name() == "" {
			t.Error("governor missing name")
		}
		if g.IntervalUS() <= 0 {
			t.Errorf("%s: non-positive interval", g.Name())
		}
		g.Reset() // must not panic
	}
}
