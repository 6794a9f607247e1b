package learner

import (
	"fmt"
	"math/rand"
)

// RoleTable is one of a learner's Q-tables, tagged with its role name.
// Roles are the persistence/federation contract: a snapshot stores each
// role under its name, and a fleet merge averages tables role-by-role,
// so a two-estimator learner (Double Q) survives save/load and
// federated merging without collapsing into one table.
type RoleTable struct {
	Role  string
	Table *QTable
}

// TableSet is a learner's complete table state: the registry name of
// the rule that produced it plus its role-tagged tables. Roles[0] is
// the primary table — the view persistence metadata (Steps, TrainedUS,
// ConvergedAtUS), policy serving and single-table consumers use.
type TableSet struct {
	Learner string
	Roles   []RoleTable
}

// Primary returns the set's primary table (nil for an empty set).
func (ts *TableSet) Primary() *QTable {
	if ts == nil || len(ts.Roles) == 0 {
		return nil
	}
	return ts.Roles[0].Table
}

// Clone deep-copies the set.
func (ts *TableSet) Clone() *TableSet {
	c := &TableSet{Learner: ts.Learner, Roles: make([]RoleTable, len(ts.Roles))}
	for i, r := range ts.Roles {
		c.Roles[i] = RoleTable{Role: r.Role, Table: r.Table.Clone()}
	}
	return c
}

// SingleTableSet wraps one table as a watkins-compatible set — the
// adapter every legacy single-table path (old snapshot files, plain
// uploads) goes through.
func SingleTableSet(t *QTable) *TableSet {
	return &TableSet{Learner: DefaultLearner, Roles: []RoleTable{{Role: "q", Table: t}}}
}

// ValidateSet checks a table set against the registry: the learner
// name must be registered and the role layout must be exactly that
// learner's (order included), with every table sharing the primary's
// action count. Both untrusted ingress paths — snapshot files and
// fleet uploads — run it, so a hostile or corrupt set fails loudly at
// the boundary instead of pinning a bogus layout into a store or
// silently dropping estimators.
func ValidateSet(ts *TableSet) error {
	if ts == nil || ts.Primary() == nil {
		return fmt.Errorf("learner: empty table set")
	}
	name := Normalize(ts.Learner)
	l, ok := learners[name]
	if !ok {
		return fmt.Errorf("learner: unknown learner %q (have: %s)", ts.Learner, joinNames(Names()))
	}
	want := l.info.Roles
	if len(ts.Roles) != len(want) {
		return fmt.Errorf("learner: %s set has %d table roles, want %d (%v)", name, len(ts.Roles), len(want), want)
	}
	actions := ts.Primary().Actions
	for i, r := range ts.Roles {
		if r.Role != want[i] {
			return fmt.Errorf("learner: %s set role %d is %q, want %q", name, i, r.Role, want[i])
		}
		if r.Table == nil || r.Table.Actions != actions {
			return fmt.Errorf("learner: %s set role %q has mismatched action space", name, r.Role)
		}
	}
	return nil
}

// Learner is a temporal-difference update rule over one or more
// Q-tables. One Learner instance serves one application's policy; the
// agent delegates both action selection and learning to it.
//
// The TD step signature carries everything any registered rule needs:
// nextAction is the behaviour action executed in the successor state
// (SARSA bootstraps from it; off-policy rules ignore it) and rng drives
// stochastic rules (Double Q's estimator coin flip).
type Learner interface {
	// Name is the registry name.
	Name() string
	// Actions is the action-space size.
	Actions() int
	// SelectAction picks the behaviour action for s by running the
	// explorer over the learner's selection view.
	SelectAction(ex Explorer, s StateKey, rng *rand.Rand) int
	// Greedy returns the greedy action and value under the learner's
	// selection view (convergence tracking).
	Greedy(s StateKey) (action int, value float64)
	// Update applies one TD step for the transition (s, a, reward, next)
	// and returns the TD error before the step.
	Update(s StateKey, a int, reward float64, next StateKey, nextAction int, alpha, gamma float64, rng *rand.Rand) float64
	// Tables exposes the learner's live tables by role; Tables()[0] is
	// the primary. The slice and tables are the learner's own state —
	// callers must not grow or reorder them.
	Tables() []RoleTable
	// Snapshot captures the table state for persistence. The returned
	// set aliases the live tables; clone before mutating.
	Snapshot() *TableSet
	// Restore adopts a snapshot's tables (no copy). A single-role set
	// restores into any learner: multi-table rules bootstrap their extra
	// estimators from the primary.
	Restore(ts *TableSet) error
	// Reset clears transient episode state (n-step buffers) while
	// keeping every table — called at session boundaries and app
	// switches.
	Reset()
}

// UpdateTargeter is an optional Learner refinement for rules whose TD
// step lands on an older transition than the one being fed in (n-step
// returns). NextUpdateTarget reports which state the NEXT Update call
// will modify — or ok=false when it will only buffer. The agent's
// convergence tracker uses it to measure greedy-action flips at the
// state that actually changes; without it, an n-step learner's flips
// would be measured at the newest state, the flip rate would decay to
// zero regardless of real policy churn, and training would latch
// "converged" prematurely.
type UpdateTargeter interface {
	NextUpdateTarget() (StateKey, bool)
}

// adoptPrimary validates a snapshot and returns its primary table —
// the shared Restore path of the single-table rules.
func adoptPrimary(name string, actions int, ts *TableSet) (*QTable, error) {
	p := ts.Primary()
	if p == nil {
		return nil, fmt.Errorf("learner: %s: empty snapshot", name)
	}
	if p.Actions != actions {
		return nil, fmt.Errorf("learner: %s: snapshot has %d actions, learner has %d", name, p.Actions, actions)
	}
	return p, nil
}

// --- watkins: the paper's Eq. 3 -----------------------------------------

// watkins is Watkins Q-learning — the paper's rule, extracted verbatim:
// the default agent's decision and update stream is bit-identical to
// the pre-registry implementation.
type watkins struct {
	T *QTable
}

func (w *watkins) Name() string { return "watkins" }
func (w *watkins) Actions() int { return w.T.Actions }

func (w *watkins) SelectAction(ex Explorer, s StateKey, rng *rand.Rand) int {
	return ex.Select(w.T, s, rng)
}

func (w *watkins) Greedy(s StateKey) (int, float64) { return w.T.Best(s) }

func (w *watkins) Update(s StateKey, a int, reward float64, next StateKey, _ int, alpha, gamma float64, _ *rand.Rand) float64 {
	return w.T.Update(s, a, reward, next, alpha, gamma)
}

func (w *watkins) Tables() []RoleTable { return []RoleTable{{Role: "q", Table: w.T}} }
func (w *watkins) Snapshot() *TableSet {
	return &TableSet{Learner: w.Name(), Roles: w.Tables()}
}
func (w *watkins) Restore(ts *TableSet) error {
	p, err := adoptPrimary(w.Name(), w.T.Actions, ts)
	if err != nil {
		return err
	}
	w.T = p
	return nil
}
func (w *watkins) Reset() {}

// --- sarsa ---------------------------------------------------------------

// sarsa is the on-policy rule: it bootstraps from the action the
// behaviour policy actually executed in s', which makes a deployed
// agent more conservative around exploratory dips.
type sarsa struct {
	T *QTable
}

func (l *sarsa) Name() string { return "sarsa" }
func (l *sarsa) Actions() int { return l.T.Actions }

func (l *sarsa) SelectAction(ex Explorer, s StateKey, rng *rand.Rand) int {
	return ex.Select(l.T, s, rng)
}

func (l *sarsa) Greedy(s StateKey) (int, float64) { return l.T.Best(s) }

func (l *sarsa) Update(s StateKey, a int, reward float64, next StateKey, nextAction int, alpha, gamma float64, _ *rand.Rand) float64 {
	row := l.T.row(s)
	var nextV float64
	if nextRow, ok := l.T.Q[next]; ok && nextAction >= 0 && nextAction < len(nextRow) {
		nextV = nextRow[nextAction]
	}
	td := reward + gamma*nextV - row[a]
	row[a] += alpha * td
	l.T.Visits[s]++
	l.T.Steps++
	return td
}

func (l *sarsa) Tables() []RoleTable { return []RoleTable{{Role: "q", Table: l.T}} }
func (l *sarsa) Snapshot() *TableSet {
	return &TableSet{Learner: l.Name(), Roles: l.Tables()}
}
func (l *sarsa) Restore(ts *TableSet) error {
	p, err := adoptPrimary(l.Name(), l.T.Actions, ts)
	if err != nil {
		return err
	}
	l.T = p
	return nil
}
func (l *sarsa) Reset() {}

// --- expected-sarsa ------------------------------------------------------

// expectedSARSA bootstraps from the expected next value under the
// current behaviour policy — ε/|A|·ΣQ(s',·) + (1−ε)·max Q(s',·) — which
// removes SARSA's sampling variance while staying on-policy. The ε it
// uses is the explorer's rate at the last selection, captured in
// SelectAction.
type expectedSARSA struct {
	T   *QTable
	eps float64
}

func (l *expectedSARSA) Name() string { return "expected-sarsa" }
func (l *expectedSARSA) Actions() int { return l.T.Actions }

func (l *expectedSARSA) SelectAction(ex Explorer, s StateKey, rng *rand.Rand) int {
	l.eps = ex.Rate()
	return ex.Select(l.T, s, rng)
}

func (l *expectedSARSA) Greedy(s StateKey) (int, float64) { return l.T.Best(s) }

func (l *expectedSARSA) Update(s StateKey, a int, reward float64, next StateKey, _ int, alpha, gamma float64, _ *rand.Rand) float64 {
	row := l.T.row(s)
	var expV float64
	if nextRow, ok := l.T.Q[next]; ok {
		maxV, sum := nextRow[0], 0.0
		for _, v := range nextRow {
			if v > maxV {
				maxV = v
			}
			sum += v
		}
		n := float64(len(nextRow))
		expV = l.eps*sum/n + (1-l.eps)*maxV
	}
	td := reward + gamma*expV - row[a]
	row[a] += alpha * td
	l.T.Visits[s]++
	l.T.Steps++
	return td
}

func (l *expectedSARSA) Tables() []RoleTable { return []RoleTable{{Role: "q", Table: l.T}} }
func (l *expectedSARSA) Snapshot() *TableSet {
	return &TableSet{Learner: l.Name(), Roles: l.Tables()}
}
func (l *expectedSARSA) Restore(ts *TableSet) error {
	p, err := adoptPrimary(l.Name(), l.T.Actions, ts)
	if err != nil {
		return err
	}
	l.T = p
	return nil
}
func (l *expectedSARSA) Reset() {}

// --- doubleq -------------------------------------------------------------

// doubleQ is van Hasselt double Q-learning: two estimators, a coin flip
// per update choosing which one learns, selection with one and
// evaluation with the other. It removes the max-operator's
// overestimation bias — relevant here because the PPDW reward is noisy
// (power jitter, FPS quantization edges) and noise is what max()
// overestimates. Selection and convergence tracking use estimator A,
// the set's primary; per-role visit counts make the federated merge
// weight each estimator by its own experience.
type doubleQ struct {
	A *QTable
	B *QTable
}

func (l *doubleQ) Name() string { return "doubleq" }
func (l *doubleQ) Actions() int { return l.A.Actions }

func (l *doubleQ) SelectAction(ex Explorer, s StateKey, rng *rand.Rand) int {
	return ex.Select(l.A, s, rng)
}

func (l *doubleQ) Greedy(s StateKey) (int, float64) { return l.A.Best(s) }

func (l *doubleQ) Update(s StateKey, a int, reward float64, next StateKey, _ int, alpha, gamma float64, rng *rand.Rand) float64 {
	// Flip which estimator updates; select with one, evaluate with the
	// other (van Hasselt 2010).
	upd, eval := l.A, l.B
	if rng.Intn(2) == 1 {
		upd, eval = l.B, l.A
	}
	row := upd.row(s)
	selAction, _ := upd.Best(next)
	var nextV float64
	if evalRow, ok := eval.Q[next]; ok {
		nextV = evalRow[selAction]
	}
	td := reward + gamma*nextV - row[a]
	row[a] += alpha * td
	// Per-role visit counts weight each estimator's own experience in a
	// federated merge; step bookkeeping lives on the primary so
	// convergence accounting sees every update.
	upd.Visits[s]++
	l.A.Steps++
	return td
}

func (l *doubleQ) Tables() []RoleTable {
	return []RoleTable{{Role: "a", Table: l.A}, {Role: "b", Table: l.B}}
}
func (l *doubleQ) Snapshot() *TableSet {
	return &TableSet{Learner: l.Name(), Roles: l.Tables()}
}

// Restore adopts a snapshot. A full two-role set restores both
// estimators; a single-table set (legacy file, plain federated policy)
// seeds both estimators from the primary — B as a copy, so the
// estimators diverge again only through fresh experience.
func (l *doubleQ) Restore(ts *TableSet) error {
	p, err := adoptPrimary(l.Name(), l.A.Actions, ts)
	if err != nil {
		return err
	}
	l.A, l.B = p, nil
	for _, r := range ts.Roles[1:] {
		if r.Role != "b" {
			continue
		}
		if r.Table.Actions != l.A.Actions {
			return fmt.Errorf("learner: doubleq: role %q has %d actions, want %d", r.Role, r.Table.Actions, l.A.Actions)
		}
		l.B = r.Table
	}
	if l.B == nil {
		l.B = p.Clone()
	}
	return nil
}
func (l *doubleQ) Reset() {}

// --- nstep ---------------------------------------------------------------

// nstepDefaultN is the horizon of the registry's "nstep" learner: long
// enough that a frequency change's thermal consequence (which lags the
// action by several control periods) reaches the action that caused it,
// short enough that the PPDW reward's phase-boundary spikes do not
// smear across unrelated decisions.
const nstepDefaultN = 4

// nstepQ is n-step Q-learning: transitions buffer until n rewards have
// accumulated, then the oldest (s,a) is updated with the n-step return
// G = Σ γ^i r_i + γ^n max_a Q(s_n, a). Longer credit assignment per
// update at the cost of a small learning lag; the behaviour policy's
// off-policy drift over the horizon is the standard uncorrected
// approximation. The buffer is episode state: Reset discards it, so
// returns never straddle a session or app switch.
type nstepQ struct {
	T *QTable
	N int

	bufS []StateKey
	bufA []int
	bufR []float64
}

func (l *nstepQ) Name() string { return "nstep" }
func (l *nstepQ) Actions() int { return l.T.Actions }

func (l *nstepQ) SelectAction(ex Explorer, s StateKey, rng *rand.Rand) int {
	return ex.Select(l.T, s, rng)
}

func (l *nstepQ) Greedy(s StateKey) (int, float64) { return l.T.Best(s) }

// NextUpdateTarget implements UpdateTargeter: the next Update applies
// to the oldest buffered transition once the window is about to fill;
// until then it only buffers.
func (l *nstepQ) NextUpdateTarget() (StateKey, bool) {
	if len(l.bufS)+1 < l.N {
		return 0, false // still accumulating
	}
	if len(l.bufS) == 0 {
		return 0, false // N == 1 degenerate case: defensive
	}
	return l.bufS[0], true
}

func (l *nstepQ) Update(s StateKey, a int, reward float64, next StateKey, _ int, alpha, gamma float64, _ *rand.Rand) float64 {
	l.bufS = append(l.bufS, s)
	l.bufA = append(l.bufA, a)
	l.bufR = append(l.bufR, reward)
	if len(l.bufR) < l.N {
		return 0 // still accumulating the return
	}
	g := 1.0
	G := 0.0
	for _, r := range l.bufR {
		G += g * r
		g *= gamma
	}
	_, nextBest := l.T.Best(next)
	G += g * nextBest
	row := l.T.row(l.bufS[0])
	td := G - row[l.bufA[0]]
	row[l.bufA[0]] += alpha * td
	l.T.Visits[l.bufS[0]]++
	l.T.Steps++
	// Shift the window (copy within the backing arrays — no per-update
	// allocation once the buffers reach capacity N).
	copy(l.bufS, l.bufS[1:])
	copy(l.bufA, l.bufA[1:])
	copy(l.bufR, l.bufR[1:])
	l.bufS = l.bufS[:len(l.bufS)-1]
	l.bufA = l.bufA[:len(l.bufA)-1]
	l.bufR = l.bufR[:len(l.bufR)-1]
	return td
}

func (l *nstepQ) Tables() []RoleTable { return []RoleTable{{Role: "q", Table: l.T}} }
func (l *nstepQ) Snapshot() *TableSet {
	return &TableSet{Learner: l.Name(), Roles: l.Tables()}
}
func (l *nstepQ) Restore(ts *TableSet) error {
	p, err := adoptPrimary(l.Name(), l.T.Actions, ts)
	if err != nil {
		return err
	}
	l.T = p
	l.Reset()
	return nil
}

func (l *nstepQ) Reset() {
	l.bufS = l.bufS[:0]
	l.bufA = l.bufA[:0]
	l.bufR = l.bufR[:0]
}
