package fleetd

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"nextdvfs/internal/learner"
)

// Policy bodies come in two encodings, indexed in memo and counter
// arrays by encodingIndex.
const (
	encJSON = iota
	encBinary
	numEncodings
)

func encodingIndex(binary bool) int {
	if binary {
		return encBinary
	}
	return encJSON
}

// published is one installed policy: an immutable merged set plus its
// wire body per encoding, encoded at most once, on the first pull that
// asks for it. Every later 200 pull writes the same bytes. The store
// installs a fresh one with each merged set, and each rollout artifact
// holds its own; it holds sync.Once values, so it is only ever passed
// by pointer.
type published struct {
	app    string
	set    *learner.TableSet
	bodies [numEncodings]encodedBody
	// encodes is the owning store's fill counter, one per encoding
	// (fleetd_policy_encodes_total).
	encodes *[numEncodings]atomic.Int64
}

type encodedBody struct {
	once        sync.Once
	data        []byte
	contentType string
	err         error
}

// body returns the policy encoded for the wire (NXTB when binary,
// compact JSON otherwise) and its Content-Type, encoding on first use.
// Callers must not modify the bytes.
func (p *published) body(binary bool) ([]byte, string, error) {
	i := encodingIndex(binary)
	b := &p.bodies[i]
	b.once.Do(func() {
		b.data, b.contentType, b.err = EncodePolicy(p.app, p.set, binary)
		p.encodes[i].Add(1)
	})
	return b.data, b.contentType, b.err
}

// publish wraps a merged set for serving, counting its encodes against
// the store.
func (s *Store) publish(app string, set *learner.TableSet) *published {
	return &published{app: app, set: set, encodes: &s.encodes}
}

// ErrNoPolicy marks a policy read for a key that has no merged policy
// yet: no merge round has run and no snapshot was restored.
var ErrNoPolicy = errors.New("fleetd: no merged policy")

// PolicyBody returns the key's current merged policy as wire bytes
// (NXTB when binary, compact JSON otherwise) with its Content-Type and
// round. Each installed policy is encoded at most once per encoding,
// outside the shard lock; every later read returns the same bytes,
// which callers must not modify. Before the first merge round it fails
// with ErrNoPolicy.
func (s *Store) PolicyBody(k Key, binary bool) (body []byte, contentType string, round int64, err error) {
	sh := s.shardFor(k)
	sh.mu.RLock()
	e := sh.entries[k]
	if e == nil || e.pub == nil {
		sh.mu.RUnlock()
		return nil, "", 0, fmt.Errorf("%w for %s", ErrNoPolicy, k)
	}
	p, round := e.pub, e.round
	sh.mu.RUnlock()
	body, contentType, err = p.body(binary)
	return body, contentType, round, err
}
