package thermal

import (
	"fmt"
	"sort"
)

// NodeSpec describes one thermal node.
type NodeSpec struct {
	Name string
	// CapJPerK is the lumped heat capacity in joules per kelvin.
	CapJPerK float64
	// GAmbWPerK is the direct conductance to ambient in watts per kelvin
	// (0 for nodes that only reach ambient through other nodes).
	GAmbWPerK float64
}

// Link couples two nodes with conductance GWPerK.
type Link struct {
	A, B   string
	GWPerK float64
}

// Model is a lumped RC thermal network. All node temperatures start at
// ambient. Construct with NewModel.
type Model struct {
	AmbientC float64

	names []string
	index map[string]int
	capJK []float64
	gAmb  []float64
	// g is the dense symmetric inter-node conductance matrix, kept as
	// the construction-time source of truth (duplicate links accumulate
	// here before the sparse lists are derived).
	g [][]float64
	// nbrs[i] is the precomputed sparse neighbor list of node i: the
	// non-zero entries of g[i] in ascending-j order. Step iterates these
	// instead of scanning the dense row, so the per-tick cost is
	// proportional to the edges that exist, and the skip-zero branch is
	// gone. Same terms in the same order as the dense scan — the
	// integration stays bit-identical (pinned by
	// TestStepMatchesDenseReference).
	nbrs  [][]edge
	tempC []float64
	// scratch for Step
	dT []float64
}

// edge is one precomputed conductance term of the RC network: neighbor
// node index plus the link conductance.
type edge struct {
	j int
	g float64
}

// NewModel builds a network from node specs and links. It panics on
// duplicate node names, unknown link endpoints, or non-positive heat
// capacities — all malformed-platform programming errors.
func NewModel(ambientC float64, nodes []NodeSpec, links []Link) *Model {
	m := &Model{
		AmbientC: ambientC,
		index:    make(map[string]int, len(nodes)),
	}
	for i, n := range nodes {
		if _, dup := m.index[n.Name]; dup {
			panic(fmt.Sprintf("thermal: duplicate node %q", n.Name))
		}
		if n.CapJPerK <= 0 {
			panic(fmt.Sprintf("thermal: node %q needs positive heat capacity", n.Name))
		}
		if n.GAmbWPerK < 0 {
			panic(fmt.Sprintf("thermal: node %q has negative ambient conductance", n.Name))
		}
		m.index[n.Name] = i
		m.names = append(m.names, n.Name)
		m.capJK = append(m.capJK, n.CapJPerK)
		m.gAmb = append(m.gAmb, n.GAmbWPerK)
		m.tempC = append(m.tempC, ambientC)
	}
	n := len(nodes)
	m.g = make([][]float64, n)
	for i := range m.g {
		m.g[i] = make([]float64, n)
	}
	for _, l := range links {
		a, okA := m.index[l.A]
		b, okB := m.index[l.B]
		if !okA || !okB {
			panic(fmt.Sprintf("thermal: link %q-%q references unknown node", l.A, l.B))
		}
		if l.GWPerK <= 0 {
			panic(fmt.Sprintf("thermal: link %q-%q needs positive conductance", l.A, l.B))
		}
		m.g[a][b] += l.GWPerK
		m.g[b][a] += l.GWPerK
	}
	m.nbrs = make([][]edge, n)
	for i := range m.g {
		for j, gij := range m.g[i] {
			if gij != 0 {
				m.nbrs[i] = append(m.nbrs[i], edge{j: j, g: gij})
			}
		}
	}
	m.dT = make([]float64, n)
	return m
}

// NumNodes returns the node count.
func (m *Model) NumNodes() int { return len(m.names) }

// Index returns the node index for name; the engine caches this so the
// per-tick path is map-free. The second result is false for unknown
// names.
func (m *Model) Index(name string) (int, bool) {
	i, ok := m.index[name]
	return i, ok
}

// MustIndex is Index but panics on unknown names.
func (m *Model) MustIndex(name string) int {
	i, ok := m.index[name]
	if !ok {
		panic(fmt.Sprintf("thermal: unknown node %q", name))
	}
	return i
}

// TempC returns the temperature of node i in °C.
func (m *Model) TempC(i int) float64 { return m.tempC[i] }

// Reset returns every node to ambient.
func (m *Model) Reset() {
	for i := range m.tempC {
		m.tempC[i] = m.AmbientC
	}
}

// Step advances the network by dtSec with the given per-node power
// injection (powerW indexed like the nodes; missing/extra entries are a
// programming error and panic via bounds check).
func (m *Model) Step(dtSec float64, powerW []float64) {
	if len(powerW) != len(m.tempC) {
		panic(fmt.Sprintf("thermal: Step got %d powers for %d nodes", len(powerW), len(m.tempC)))
	}
	// Hoist the field loads and pin slice lengths so the integration
	// loop keeps everything in registers and drops its bounds checks;
	// the arithmetic is untouched (term order is the bit-identity
	// contract pinned by TestStepMatchesDenseReference).
	temp := m.tempC
	powerW = powerW[:len(temp)]
	dT := m.dT[:len(temp)]
	gAmb := m.gAmb[:len(temp)]
	capJK := m.capJK[:len(temp)]
	amb := m.AmbientC
	for i, ti := range temp {
		flow := powerW[i] - gAmb[i]*(ti-amb)
		for _, e := range m.nbrs[i] {
			flow -= e.g * (ti - temp[e.j])
		}
		dT[i] = flow / capJK[i] * dtSec
	}
	for i := range temp {
		temp[i] += dT[i]
	}
}

// VirtualSensor is a weighted blend of node temperatures, mirroring the
// Note 9's proprietary "device temperature" formula.
type VirtualSensor struct {
	model   *Model
	indices []int
	weights []float64
}

// NewVirtualSensor builds a sensor from node-name weights. Weights are
// normalized to sum to 1. Nodes are folded in sorted-name order so two
// sensors built from equal maps blend identically bit-for-bit — map
// iteration order would otherwise leak ULP-level noise into the device
// temperature and break byte-identical reruns.
func NewVirtualSensor(m *Model, weights map[string]float64) *VirtualSensor {
	names := make([]string, 0, len(weights))
	for name := range weights {
		names = append(names, name)
	}
	sort.Strings(names)
	s := &VirtualSensor{model: m}
	var sum float64
	for _, name := range names {
		w := weights[name]
		if w <= 0 {
			panic(fmt.Sprintf("thermal: sensor weight for %q must be positive", name))
		}
		s.indices = append(s.indices, m.MustIndex(name))
		s.weights = append(s.weights, w)
		sum += w
	}
	if sum == 0 {
		panic("thermal: virtual sensor needs at least one weight")
	}
	for i := range s.weights {
		s.weights[i] /= sum
	}
	return s
}

// ReadC returns the blended temperature in °C.
func (s *VirtualSensor) ReadC() float64 {
	var t float64
	for k, i := range s.indices {
		t += s.weights[k] * s.model.TempC(i)
	}
	return t
}
