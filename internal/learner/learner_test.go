package learner

import (
	"math"
	"math/rand"
	"testing"
)

func TestRegistryHasAtLeastFourLearnersAndThreeExplorers(t *testing.T) {
	if n := len(Names()); n < 4 {
		t.Fatalf("learners registered = %d, want >= 4 (%v)", n, Names())
	}
	if n := len(ExplorerNames()); n < 3 {
		t.Fatalf("explorers registered = %d, want >= 3 (%v)", n, ExplorerNames())
	}
	for _, name := range Names() {
		l := Must(name, 9)
		if l.Name() != name {
			t.Fatalf("%s: Name() = %q", name, l.Name())
		}
		if l.Actions() != 9 {
			t.Fatalf("%s: Actions() = %d", name, l.Actions())
		}
		if got := l.Tables()[0].Role; got != PrimaryRole(name) {
			t.Fatalf("%s: primary role %q, PrimaryRole says %q", name, got, PrimaryRole(name))
		}
	}
}

func TestRegistryRejectsUnknownNames(t *testing.T) {
	if _, err := New("nope", 4); err == nil {
		t.Fatal("unknown learner accepted")
	}
	if _, err := NewExplorer("nope"); err == nil {
		t.Fatal("unknown explorer accepted")
	}
	if Known("nope") || KnownExplorer("nope") {
		t.Fatal("Known must reject unknown names")
	}
	if !Known("") || !KnownExplorer("") {
		t.Fatal("empty name must resolve to the default")
	}
}

func TestWatkinsDegeneratesToPaperRule(t *testing.T) {
	// The default learner must produce byte-identical updates to the
	// raw Eq. 3 implementation.
	rng := rand.New(rand.NewSource(1))
	l := Must("watkins", 4)
	q := NewQTable(4)
	for i := 0; i < 500; i++ {
		s := StateKey(rng.Intn(6))
		a := rng.Intn(4)
		r := rng.Float64() - 0.5
		next := StateKey(rng.Intn(6))
		tdL := l.Update(s, a, r, next, rng.Intn(4), 0.2, 0.9, rng)
		tdQ := q.Update(s, a, r, next, 0.2, 0.9)
		if tdL != tdQ {
			t.Fatalf("step %d: td %g vs %g", i, tdL, tdQ)
		}
	}
	got := l.Tables()[0].Table
	for s, row := range q.Q {
		for i := range row {
			if got.Q[s][i] != row[i] {
				t.Fatal("learner diverged from raw Q-learning")
			}
		}
	}
}

func TestWatkinsSelectionMatchesEpsilonGreedyStream(t *testing.T) {
	// SelectAction through the interface must consume the rng exactly
	// like a direct EpsilonGreedy.Select — the bit-identity contract the
	// agent's default path relies on.
	mk := func() (*QTable, *rand.Rand) {
		q := NewQTable(5)
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 40; i++ {
			q.Update(StateKey(i%7), i%5, rng.Float64()-0.5, StateKey((i+1)%7), 0.3, 0.9)
		}
		return q, rand.New(rand.NewSource(33))
	}
	qA, rngA := mk()
	l := &watkins{T: qA}
	exA := &EpsilonGreedy{Epsilon: 0.8, EpsilonMin: 0.08, Decay: 0.99}
	qB, rngB := mk()
	exB := &EpsilonGreedy{Epsilon: 0.8, EpsilonMin: 0.08, Decay: 0.99}
	for i := 0; i < 300; i++ {
		s := StateKey(i % 7)
		if got, want := l.SelectAction(exA, s, rngA), exB.Select(qB, s, rngB); got != want {
			t.Fatalf("step %d: action %d vs %d", i, got, want)
		}
	}
}

func TestSARSAUsesExecutedAction(t *testing.T) {
	l := Must("sarsa", 3)
	rng := rand.New(rand.NewSource(2))
	s, next := StateKey(1), StateKey(2)
	tab := l.Tables()[0].Table
	tab.row(next)[0] = 10 // greedy value
	tab.row(next)[2] = 1  // executed action's value
	// SARSA must bootstrap from the executed action (2), not the max (0).
	td := l.Update(s, 0, 0, next, 2, 1.0, 0.5, rng)
	if math.Abs(td-0.5) > 1e-12 { // 0 + 0.5*1 − 0
		t.Fatalf("td = %g, want 0.5 (bootstrapped from executed action)", td)
	}
}

func TestExpectedSARSABlendsByExplorationRate(t *testing.T) {
	l := Must("expected-sarsa", 2).(*expectedSARSA)
	rng := rand.New(rand.NewSource(3))
	next := StateKey(2)
	l.T.row(next)[0] = 4
	l.T.row(next)[1] = 0
	l.eps = 0.5
	// E = 0.5/2·(4+0) + 0.5·4 = 1 + 2 = 3 → td = 0 + 0.5·3 − 0 = 1.5
	td := l.Update(StateKey(1), 0, 0, next, 1, 1.0, 0.5, rng)
	if math.Abs(td-1.5) > 1e-12 {
		t.Fatalf("td = %g, want 1.5", td)
	}
	// SelectAction must capture the explorer's rate for the next update.
	ex := &EpsilonGreedy{Epsilon: 0.25, EpsilonMin: 0.25}
	l.SelectAction(ex, StateKey(1), rng)
	if l.eps != 0.25 {
		t.Fatalf("captured eps = %g, want 0.25", l.eps)
	}
}

func TestDoubleQMaintainsTwoEstimators(t *testing.T) {
	l := Must("doubleq", 3).(*doubleQ)
	if l.B == nil {
		t.Fatal("double Q needs a second table")
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		l.Update(StateKey(i%4), i%3, 1, StateKey((i+1)%4), 0, 0.1, 0.9, rng)
	}
	if len(l.A.Q) == 0 || len(l.B.Q) == 0 {
		t.Fatal("both estimators should receive updates")
	}
	if a, _ := combinedBest(l, StateKey(0)); a < 0 || a > 2 {
		t.Fatalf("combined best out of range: %d", a)
	}
	if l.A.Steps != 2000 {
		t.Fatalf("primary must carry the step bookkeeping: %d", l.A.Steps)
	}
	// Per-role visit counts: each estimator counts its own updates.
	visits := 0
	for _, v := range l.A.Visits {
		visits += v
	}
	for _, v := range l.B.Visits {
		visits += v
	}
	if visits != 2000 {
		t.Fatalf("role visit counts total %d, want 2000", visits)
	}
}

func TestDoubleQReducesOverestimationUnderNoise(t *testing.T) {
	// Classic construction: all actions have true value 0 but rewards
	// are ±1 noise. Q-learning's max() drags values upward; Double Q
	// should sit closer to the truth.
	biasOf := func(name string, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		l := Must(name, 8)
		s := StateKey(0)
		for i := 0; i < 30_000; i++ {
			a := rng.Intn(8)
			r := 1.0
			if rng.Intn(2) == 0 {
				r = -1.0
			}
			l.Update(s, a, r, s, rng.Intn(8), 0.1, 0.9, rng)
		}
		if dq, ok := l.(*doubleQ); ok {
			_, v := combinedBest(dq, s)
			return v
		}
		_, v := l.Greedy(s)
		return v
	}
	q := biasOf("watkins", 4)
	dq := biasOf("doubleq", 4)
	if dq >= q {
		t.Fatalf("double Q value (%g) should be below Q-learning's optimistic estimate (%g)", dq, q)
	}
}

// combinedBest returns the greedy action under Double Q's averaged
// estimate (A+B)/2 — the lower-bias value view the bias test checks.
func combinedBest(l *doubleQ, s StateKey) (int, float64) {
	ra, okA := l.A.Q[s]
	rb, okB := l.B.Q[s]
	if !okA && !okB {
		return 0, 0
	}
	combined := func(a int) float64 {
		var v float64
		if ra != nil {
			v += ra[a] / 2
		}
		if rb != nil {
			v += rb[a] / 2
		}
		return v
	}
	best, bestV := 0, combined(0)
	for a := 1; a < l.A.Actions; a++ {
		if v := combined(a); v > bestV {
			best, bestV = a, v
		}
	}
	return best, bestV
}

func TestNStepAppliesDelayedReturns(t *testing.T) {
	l := Must("nstep", 2).(*nstepQ)
	rng := rand.New(rand.NewSource(5))
	// The first N-1 updates buffer without touching the table.
	for i := 0; i < l.N-1; i++ {
		if td := l.Update(StateKey(i), 0, 1, StateKey(i+1), 0, 0.5, 0.5, rng); td != 0 {
			t.Fatalf("update %d applied early (td=%g)", i, td)
		}
	}
	if l.T.Steps != 0 {
		t.Fatal("table updated before the return window filled")
	}
	// The N-th transition completes the window: the oldest (s,a) gets
	// G = r0 + γ·r1 + … + γ^N·max Q(s_N).
	td := l.Update(StateKey(l.N-1), 0, 1, StateKey(l.N), 0, 0.5, 0.5, rng)
	wantG := 0.0
	g := 1.0
	for i := 0; i < l.N; i++ {
		wantG += g * 1
		g *= 0.5
	}
	if math.Abs(td-wantG) > 1e-12 {
		t.Fatalf("td = %g, want n-step return %g", td, wantG)
	}
	if l.T.Steps != 1 || l.T.Visits[StateKey(0)] != 1 {
		t.Fatal("oldest transition not the one updated")
	}
	// Reset discards the pending window: the next update buffers again.
	l.Reset()
	if td := l.Update(StateKey(9), 0, 1, StateKey(10), 0, 0.5, 0.5, rng); td != 0 {
		t.Fatal("reset did not clear the n-step buffer")
	}
}

func TestEveryLearnerIsDeterministic(t *testing.T) {
	// Same seed → identical tables, for every registered rule.
	for _, name := range Names() {
		runOnce := func() []RoleTable {
			rng := rand.New(rand.NewSource(77))
			l := Must(name, 6)
			ex := MustExplorer("egreedy")
			s := StateKey(0)
			for i := 0; i < 3000; i++ {
				a := l.SelectAction(ex, s, rng)
				next := StateKey((int(s) + a + 1) % 11)
				l.Update(s, a, rng.Float64()-0.4, next, a, 0.3, 0.9, rng)
				s = next
			}
			return l.Tables()
		}
		t1, t2 := runOnce(), runOnce()
		if len(t1) != len(t2) {
			t.Fatalf("%s: role counts differ", name)
		}
		for i := range t1 {
			a, b := t1[i].Table, t2[i].Table
			if len(a.Q) != len(b.Q) || a.Steps != b.Steps {
				t.Fatalf("%s role %s: shape differs", name, t1[i].Role)
			}
			for s, row := range a.Q {
				for j := range row {
					if row[j] != b.Q[s][j] {
						t.Fatalf("%s role %s: Q[%d][%d] differs", name, t1[i].Role, s, j)
					}
				}
			}
		}
	}
}

func TestSnapshotRestoreRoundTripsEveryLearner(t *testing.T) {
	for _, name := range Names() {
		rng := rand.New(rand.NewSource(13))
		l := Must(name, 4)
		for i := 0; i < 500; i++ {
			l.Update(StateKey(i%9), i%4, rng.Float64()-0.5, StateKey((i+3)%9), i%4, 0.3, 0.9, rng)
		}
		snap := l.Snapshot().Clone()
		fresh := Must(name, 4)
		if err := fresh.Restore(snap); err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		want, got := l.Tables(), fresh.Tables()
		if len(want) != len(got) {
			t.Fatalf("%s: role counts differ after restore", name)
		}
		for i := range want {
			for s, row := range want[i].Table.Q {
				for j := range row {
					if got[i].Table.Q[s][j] != row[j] {
						t.Fatalf("%s role %s: value lost in round trip", name, want[i].Role)
					}
				}
			}
		}
	}
}

func TestDoubleQRestoreFromSingleTableSeedsBothEstimators(t *testing.T) {
	q := NewQTable(3)
	q.Update(StateKey(1), 2, 1, StateKey(2), 0.5, 0.9)
	l := Must("doubleq", 3).(*doubleQ)
	if err := l.Restore(SingleTableSet(q)); err != nil {
		t.Fatal(err)
	}
	if l.A != q {
		t.Fatal("primary must adopt the installed table (no copy)")
	}
	if l.B == q || l.B.Q[StateKey(1)][2] != q.Q[StateKey(1)][2] {
		t.Fatal("B must be a distinct copy of the primary")
	}
}

func TestRestoreRejectsActionMismatch(t *testing.T) {
	for _, name := range Names() {
		l := Must(name, 4)
		if err := l.Restore(SingleTableSet(NewQTable(5))); err == nil {
			t.Fatalf("%s: restore accepted mismatched action space", name)
		}
	}
}

func TestUCBTriesEveryActionFirst(t *testing.T) {
	ex := MustExplorer("ucb")
	q := NewQTable(4)
	rng := rand.New(rand.NewSource(6))
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		seen[ex.Select(q, StateKey(0), rng)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("UCB tried %d/4 actions in the first 4 pulls", len(seen))
	}
	// With one clearly best action and many pulls, UCB must favor it.
	q.row(StateKey(0))[1] = 10
	picks := 0
	for i := 0; i < 200; i++ {
		if ex.Select(q, StateKey(0), rng) == 1 {
			picks++
		}
	}
	if picks < 100 {
		t.Fatalf("UCB picked the best action only %d/200 times", picks)
	}
}

func TestSoftmaxFollowsTemperature(t *testing.T) {
	q := NewQTable(3)
	q.row(StateKey(0))[2] = 5
	rng := rand.New(rand.NewSource(7))
	// Cold: nearly greedy.
	cold := &Softmax{Tau: 0.05, TauMin: 0.05}
	greedy := 0
	for i := 0; i < 300; i++ {
		if cold.Select(q, StateKey(0), rng) == 2 {
			greedy++
		}
	}
	if greedy < 290 {
		t.Fatalf("cold softmax greedy picks = %d/300", greedy)
	}
	// Hot: close to uniform — every action sampled.
	hot := &Softmax{Tau: 100, TauMin: 100}
	seen := map[int]bool{}
	for i := 0; i < 300; i++ {
		seen[hot.Select(q, StateKey(0), rng)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("hot softmax covered %d/3 actions", len(seen))
	}
	// Cooling: Tau decays toward TauMin.
	cooling := &Softmax{Tau: 1, TauMin: 0.1, Decay: 0.5}
	for i := 0; i < 20; i++ {
		cooling.Select(q, StateKey(0), rng)
	}
	if cooling.Tau != 0.1 {
		t.Fatalf("tau = %g, want cooled to 0.1", cooling.Tau)
	}
}

func TestExplorerRates(t *testing.T) {
	eg := &EpsilonGreedy{Epsilon: 0.5, EpsilonMin: 0.1}
	if eg.Rate() != 0.5 {
		t.Fatalf("egreedy rate = %g", eg.Rate())
	}
	eg.Epsilon = 0.01
	if eg.Rate() != 0.1 {
		t.Fatal("egreedy rate must clamp to the minimum")
	}
	if (&UCB1{}).Rate() != 1 {
		t.Fatal("UCB rate must report always-exploring")
	}
	if r := (&Softmax{Tau: 0.3, TauMin: 0.05}).Rate(); r != 0.3 {
		t.Fatalf("softmax rate = %g", r)
	}
}

func TestTableSetPrimaryAndClone(t *testing.T) {
	var nilSet *TableSet
	if nilSet.Primary() != nil {
		t.Fatal("nil set must have nil primary")
	}
	q := NewQTable(2)
	q.Update(StateKey(3), 1, 1, StateKey(4), 0.5, 0.9)
	set := SingleTableSet(q)
	c := set.Clone()
	if c.Primary() == q {
		t.Fatal("clone must not alias")
	}
	c.Primary().Q[StateKey(3)][1] = 99
	if q.Q[StateKey(3)][1] == 99 {
		t.Fatal("clone leaked into the original")
	}
}
