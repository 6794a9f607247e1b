package learner

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Explorer is an exploration strategy: given the learner's selection
// view of a state, pick the behaviour action. Implementations may keep
// per-state statistics (UCB1's pull counts) or a decaying schedule
// (ε-greedy, softmax temperature); one Explorer instance serves one
// app's table, mirroring the per-app exploration schedule the paper's
// agent keeps.
type Explorer interface {
	// Name is the registry name.
	Name() string
	// Select picks an action for s over the selection table.
	Select(t *QTable, s StateKey, rng *rand.Rand) int
	// Rate reports the current exploration intensity in [0, 1] (ε for
	// ε-greedy). The agent gates its exploring-starts heuristic on it:
	// random episode starts fire only while Rate is high.
	Rate() float64
}

// EpsilonGreedy is the paper's ε-greedy action selector with
// multiplicative decay (previously core.Policy — the selection stream
// is bit-identical).
type EpsilonGreedy struct {
	Epsilon    float64
	EpsilonMin float64
	Decay      float64
}

// Name implements Explorer.
func (p *EpsilonGreedy) Name() string { return "egreedy" }

// Rate implements Explorer: the effective ε the next Select will use.
func (p *EpsilonGreedy) Rate() float64 {
	if p.Epsilon < p.EpsilonMin {
		return p.EpsilonMin
	}
	return p.Epsilon
}

// Select picks an action for s from the table: random with probability
// Epsilon, greedy otherwise. Greedy ties break uniformly at random —
// with zero-initialized rows a deterministic tie-break would
// systematically favor one action ("big frequency up" under the paper's
// enumeration) and bias early training. Each call decays Epsilon toward
// EpsilonMin.
func (p *EpsilonGreedy) Select(t *QTable, s StateKey, rng *rand.Rand) int {
	eps := p.Epsilon
	if eps < p.EpsilonMin {
		eps = p.EpsilonMin
	}
	var a int
	if rng.Float64() < eps {
		a = rng.Intn(t.Actions)
	} else {
		a = greedyRandTie(t, s, rng)
	}
	if p.Decay > 0 && p.Epsilon > p.EpsilonMin {
		p.Epsilon *= p.Decay
		if p.Epsilon < p.EpsilonMin {
			p.Epsilon = p.EpsilonMin
		}
	}
	return a
}

// UCB1 is upper-confidence-bound exploration: it picks
// argmax_a Q(s,a) + C·sqrt(ln N(s) / n(s,a)), trying every action of a
// state once before trusting any estimate. Unlike ε-greedy it explores
// where uncertainty is, not uniformly, so rarely visited operating
// points keep getting probed while well-understood ones do not. The
// explorer keeps its own per-state action counts (the Q-table only
// tracks per-state visit totals for federated merging).
type UCB1 struct {
	counts map[StateKey][]int
}

// ucbC scales UCB1's confidence bonus (the classic sqrt(2)).
const ucbC = math.Sqrt2

// Name implements Explorer.
func (u *UCB1) Name() string { return "ucb" }

// Rate implements Explorer: UCB1 has no global exploration schedule —
// its bonus vanishes per state-action as counts grow — so the
// exploring-starts gate treats it as always exploring.
func (u *UCB1) Rate() float64 { return 1 }

// Select implements Explorer.
func (u *UCB1) Select(t *QTable, s StateKey, rng *rand.Rand) int {
	if u.counts == nil {
		u.counts = make(map[StateKey][]int)
	}
	cnt, ok := u.counts[s]
	if !ok {
		cnt = make([]int, t.Actions)
		u.counts[s] = cnt
	}
	total := 0
	for _, n := range cnt {
		total += n
	}
	row := t.Q[s] // nil for unvisited states: values read as 0
	best, bestV := -1, math.Inf(-1)
	for a := 0; a < t.Actions; a++ {
		if cnt[a] == 0 {
			// Untried action: try it first (infinite bonus). Tie-break
			// among untried actions by lowest index — deterministic, and
			// the order is immaterial because all get tried.
			best = a
			break
		}
		var q float64
		if row != nil {
			q = row[a]
		}
		v := q + ucbC*math.Sqrt(math.Log(float64(total))/float64(cnt[a]))
		if v > bestV {
			best, bestV = a, v
		}
	}
	cnt[best]++
	return best
}

// Softmax is Boltzmann exploration: actions are sampled with
// probability ∝ exp(Q(s,a)/τ). High temperature ≈ uniform, low
// temperature ≈ greedy; each call cools τ toward TauMin, the softmax
// analogue of ε decay.
type Softmax struct {
	Tau    float64
	TauMin float64
	Decay  float64

	probs []float64 // scratch, reused across calls
}

// Name implements Explorer.
func (b *Softmax) Name() string { return "softmax" }

// Rate implements Explorer: the cooling progress mapped to [0, 1] — at
// τ = Tau0 the policy is maximally exploratory, at τ = TauMin it is as
// greedy as it will get. Rate is τ clamped to [0,1]: τ ≥ 1 is
// near-uniform sampling.
func (b *Softmax) Rate() float64 {
	tau := b.Tau
	if tau < b.TauMin {
		tau = b.TauMin
	}
	if tau > 1 {
		return 1
	}
	return tau
}

// Select implements Explorer.
func (b *Softmax) Select(t *QTable, s StateKey, rng *rand.Rand) int {
	tau := b.Tau
	if tau < b.TauMin {
		tau = b.TauMin
	}
	if tau <= 0 {
		tau = 1e-3
	}
	if cap(b.probs) < t.Actions {
		b.probs = make([]float64, t.Actions)
	}
	probs := b.probs[:t.Actions]

	row := t.Q[s]
	// Subtract the max before exponentiating (standard overflow guard);
	// an unvisited state degenerates to the uniform distribution.
	maxQ := 0.0
	if row != nil {
		maxQ = row[0]
		for _, v := range row[1:] {
			if v > maxQ {
				maxQ = v
			}
		}
	}
	sum := 0.0
	for a := 0; a < t.Actions; a++ {
		var q float64
		if row != nil {
			q = row[a]
		}
		p := math.Exp((q - maxQ) / tau)
		probs[a] = p
		sum += p
	}
	u := rng.Float64() * sum
	pick := t.Actions - 1 // guards against float round-off
	acc := 0.0
	for a := 0; a < t.Actions; a++ {
		acc += probs[a]
		if u < acc {
			pick = a
			break
		}
	}
	if b.Decay > 0 && b.Tau > b.TauMin {
		b.Tau *= b.Decay
		if b.Tau < b.TauMin {
			b.Tau = b.TauMin
		}
	}
	return pick
}

// The paper's training-time ε schedule: ε starts at epsilonStart and
// decays by epsilonDecay per selection down to epsilonMin. Softmax
// cooling starts at softmaxTau, stops at softmaxTauMin and cools at the
// same rate.
const (
	epsilonStart  = 0.80
	epsilonMin    = 0.08
	epsilonDecay  = 0.9997
	softmaxTau    = 1.0
	softmaxTauMin = 0.05
)

// ExplorerInfo describes one registered explorer.
type ExplorerInfo struct {
	Name        string
	Description string
}

// explorerFactory builds a fresh explorer instance.
type explorerFactory func() Explorer

var explorers = map[string]struct {
	info    ExplorerInfo
	factory explorerFactory
}{}

// DefaultExplorer is the paper's exploration strategy.
const DefaultExplorer = "egreedy"

func registerExplorer(info ExplorerInfo, f explorerFactory) {
	if _, dup := explorers[info.Name]; dup {
		panic("learner: duplicate explorer " + info.Name)
	}
	explorers[info.Name] = struct {
		info    ExplorerInfo
		factory explorerFactory
	}{info, f}
}

func init() {
	registerExplorer(ExplorerInfo{
		Name:        "egreedy",
		Description: "ε-greedy with multiplicative decay (the paper's schedule)",
	}, func() Explorer {
		return &EpsilonGreedy{Epsilon: epsilonStart, EpsilonMin: epsilonMin, Decay: epsilonDecay}
	})
	registerExplorer(ExplorerInfo{
		Name:        "ucb",
		Description: "UCB1 upper-confidence-bound exploration (uncertainty-directed)",
	}, func() Explorer {
		return &UCB1{}
	})
	registerExplorer(ExplorerInfo{
		Name:        "softmax",
		Description: "Boltzmann softmax with temperature cooling",
	}, func() Explorer {
		return &Softmax{Tau: softmaxTau, TauMin: softmaxTauMin, Decay: epsilonDecay}
	})
}

// ExplorerNames lists the registered explorers, sorted.
func ExplorerNames() []string {
	names := make([]string, 0, len(explorers))
	for n := range explorers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// KnownExplorer reports whether name is registered ("" counts: it
// resolves to the default).
func KnownExplorer(name string) bool {
	if name == "" {
		return true
	}
	_, ok := explorers[name]
	return ok
}

// NewExplorer builds a fresh explorer by registry name ("" = the
// default ε-greedy).
func NewExplorer(name string) (Explorer, error) {
	if name == "" {
		name = DefaultExplorer
	}
	e, ok := explorers[name]
	if !ok {
		return nil, fmt.Errorf("learner: unknown explorer %q (have: %s)", name, joinNames(ExplorerNames()))
	}
	return e.factory(), nil
}

// MustExplorer is NewExplorer for wiring that is code, not input.
func MustExplorer(name string) Explorer {
	e, err := NewExplorer(name)
	if err != nil {
		panic(err)
	}
	return e
}
