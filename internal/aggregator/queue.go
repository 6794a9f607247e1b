package aggregator

import (
	"sync"

	"nextdvfs/internal/fleetd"
)

// pendKey identifies one pending upward upload: the policy key plus
// the device that produced it. A device re-uploading the same policy
// replaces its pending body instead of consuming another slot, so the
// queue's capacity bounds distinct (policy, device) pairs — the only
// thing the root ultimately keeps — not raw request volume.
type pendKey struct {
	key    fleetd.Key
	device string
}

// pendingUpload pairs a queued key with the device's original compact
// wire body, forwarded to the root unmodified.
type pendingUpload struct {
	pk   pendKey
	body []byte
}

// queue is the bounded buffer between the device-facing handlers and
// the upward federation pipeline. FIFO across distinct keys (oldest
// device first), replace-in-place per key, hard-bounded: when full,
// new keys are rejected and the handler answers 429 + Retry-After.
type queue struct {
	mu      sync.Mutex
	limit   int
	entries map[pendKey][]byte
	order   []pendKey // arrival order of the keys in entries
}

func newQueue(limit int) *queue {
	return &queue{limit: limit, entries: make(map[pendKey][]byte)}
}

// put enqueues (or replaces) a pending upload. It reports the body it
// replaced (nil for a new key), the depth after the operation, and
// ok=false when a new key would exceed the bound — replacements always
// succeed, so a device that honors Retry-After never loses its slot to
// its own retries.
func (q *queue) put(pk pendKey, body []byte) (prev []byte, depth int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	prev, exists := q.entries[pk]
	if !exists {
		if len(q.order) >= q.limit {
			return nil, len(q.order), false
		}
		q.order = append(q.order, pk)
	}
	q.entries[pk] = body
	return prev, len(q.order), true
}

// remove drops a pending upload (used to unwind an enqueue of a new
// key when the local store rejects the body — nothing the local tier
// refused should reach the root).
func (q *queue) remove(pk pendKey) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, exists := q.entries[pk]; !exists {
		return
	}
	delete(q.entries, pk)
	for i, k := range q.order {
		if k == pk {
			q.order = append(q.order[:i], q.order[i+1:]...)
			break
		}
	}
}

// take pops up to n oldest pending uploads for a flush batch.
func (q *queue) take(n int) []pendingUpload {
	q.mu.Lock()
	defer q.mu.Unlock()
	if n > len(q.order) {
		n = len(q.order)
	}
	if n == 0 {
		return nil
	}
	batch := make([]pendingUpload, n)
	for i, pk := range q.order[:n] {
		batch[i] = pendingUpload{pk: pk, body: q.entries[pk]}
		delete(q.entries, pk)
	}
	q.order = append(q.order[:0], q.order[n:]...)
	return batch
}

// putBack returns a failed flush batch to the front of the queue so
// the next flush retries oldest-first. A key re-uploaded while the
// flush was in flight keeps its newer body; the stale batch copy is
// dropped. putBack ignores the bound — the entries held slots when
// taken, and refusing them here would silently lose device tables.
func (q *queue) putBack(batch []pendingUpload) {
	q.mu.Lock()
	defer q.mu.Unlock()
	restored := make([]pendKey, 0, len(batch))
	for _, p := range batch {
		if _, exists := q.entries[p.pk]; exists {
			continue
		}
		q.entries[p.pk] = p.body
		restored = append(restored, p.pk)
	}
	q.order = append(restored, q.order...)
}

// depth reports how many uploads are pending.
func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.order)
}
