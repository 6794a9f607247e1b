package learner

import (
	"fmt"
	"sort"
	"strings"
)

// DefaultLearner is the paper's update rule.
const DefaultLearner = "watkins"

// Info describes one registered learner for listings.
type Info struct {
	Name        string
	Description string
	// Roles are the table roles the learner persists/merges, primary
	// first.
	Roles []string
}

// factory builds a fresh learner over the given action count.
type factory func(actions int) Learner

var learners = map[string]struct {
	info    Info
	factory factory
}{}

func register(info Info, f factory) {
	if _, dup := learners[info.Name]; dup {
		panic("learner: duplicate learner " + info.Name)
	}
	learners[info.Name] = struct {
		info    Info
		factory factory
	}{info, f}
}

func init() {
	register(Info{
		Name:        "watkins",
		Description: "Watkins Q-learning (the paper's Eq. 3; the default)",
		Roles:       []string{"q"},
	}, func(actions int) Learner { return &watkins{T: NewQTable(actions)} })
	register(Info{
		Name:        "doubleq",
		Description: "van Hasselt double Q-learning (two estimators, reduces maximization bias)",
		Roles:       []string{"a", "b"},
	}, func(actions int) Learner { return &doubleQ{A: NewQTable(actions), B: NewQTable(actions)} })
	register(Info{
		Name:        "sarsa",
		Description: "on-policy SARSA (bootstraps from the executed action)",
		Roles:       []string{"q"},
	}, func(actions int) Learner { return &sarsa{T: NewQTable(actions)} })
	register(Info{
		Name:        "expected-sarsa",
		Description: "Expected SARSA (on-policy expectation, lower variance than SARSA)",
		Roles:       []string{"q"},
	}, func(actions int) Learner { return &expectedSARSA{T: NewQTable(actions)} })
	register(Info{
		Name:        "nstep",
		Description: fmt.Sprintf("%d-step Q-learning (n-step return buffer, longer credit assignment)", nstepDefaultN),
		Roles:       []string{"q"},
	}, func(actions int) Learner { return &nstepQ{T: NewQTable(actions), N: nstepDefaultN} })
}

// Names lists the registered learners, sorted.
func Names() []string {
	names := make([]string, 0, len(learners))
	for n := range learners {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Infos lists name/description/roles for every registered learner,
// sorted by name.
func Infos() []Info {
	names := Names()
	infos := make([]Info, 0, len(names))
	for _, n := range names {
		infos = append(infos, learners[n].info)
	}
	return infos
}

// Known reports whether name is registered ("" counts: it resolves to
// the default).
func Known(name string) bool {
	if name == "" {
		return true
	}
	_, ok := learners[name]
	return ok
}

// CheckNames validates a learner and an explorer name against their
// registries — the one name check every driver runs before building
// agents. "" names the default and always passes, so a caller checks
// one name alone by passing "" for the other. The error lists the live
// registry; callers prefix it with their package name.
func CheckNames(learnerName, explorer string) error {
	if !Known(learnerName) {
		return fmt.Errorf("unknown learner %q (have: %s)", learnerName, joinNames(Names()))
	}
	if !KnownExplorer(explorer) {
		return fmt.Errorf("unknown explorer %q (have: %s)", explorer, joinNames(ExplorerNames()))
	}
	return nil
}

// Normalize maps the empty name to the default learner.
func Normalize(name string) string {
	if name == "" {
		return DefaultLearner
	}
	return name
}

// PrimaryRole returns the role name of a learner's primary table ("q"
// for unknown names — the legacy single-table role).
func PrimaryRole(name string) string {
	if l, ok := learners[Normalize(name)]; ok {
		return l.info.Roles[0]
	}
	return "q"
}

// New builds a fresh learner by registry name ("" = watkins) over the
// given action count.
func New(name string, actions int) (Learner, error) {
	l, ok := learners[Normalize(name)]
	if !ok {
		return nil, fmt.Errorf("learner: unknown learner %q (have: %s)", name, joinNames(Names()))
	}
	return l.factory(actions), nil
}

// Must is New for wiring that is code, not input.
func Must(name string, actions int) Learner {
	l, err := New(name, actions)
	if err != nil {
		panic(err)
	}
	return l
}

// joinNames renders a registry's names for error messages — derived
// from the live registry, so the message can never drift from the
// actual set.
func joinNames(names []string) string { return strings.Join(names, ", ") }
