package tenant

import "container/heap"

// request is one pending fold admission for a tenant. weight is the dirty
// count at admission time (live count for a forced-Full request) — the
// scheduling key. seq is the global admission tick, the aging key.
type request struct {
	t      *Tenant
	weight int
	seq    uint64
	hidx   int // index in the heap, maintained by the heap interface
	taken  bool
}

// schedQueue orders pending folds smallest-weight-first with anti-starvation
// aging: every pop advances a tick, and once the oldest pending request has
// waited agingLimit pops it is taken next regardless of weight, so a big
// tenant behind a stream of small ones is delayed by at most agingLimit
// folds. Pop is O(log n): a min-heap on weight plus a FIFO (lazily pruned)
// on admission order. Not safe for concurrent use — the Manager guards it
// with its own lock.
type schedQueue struct {
	heap       reqHeap
	fifo       []*request // admission order; taken entries pruned lazily
	seq        uint64     // next admission tick
	pops       uint64     // pop tick
	agingLimit uint64
}

// Len returns the number of pending requests.
func (q *schedQueue) Len() int { return q.heap.Len() }

// Push admits a request.
func (q *schedQueue) Push(t *Tenant, weight int) {
	r := &request{t: t, weight: weight, seq: q.seq}
	q.seq++
	heap.Push(&q.heap, r)
	q.fifo = append(q.fifo, r)
}

// Pop removes and returns the next tenant to fold: the oldest request once
// it has aged past the limit, the smallest otherwise.
func (q *schedQueue) Pop() *Tenant {
	q.pops++
	// Prune taken entries off the FIFO head so the oldest live request is
	// at the front.
	for len(q.fifo) > 0 && q.fifo[0].taken {
		q.fifo[0] = nil
		q.fifo = q.fifo[1:]
	}
	var r *request
	if len(q.fifo) > 0 && q.pops-q.fifo[0].seq > q.agingLimit {
		r = q.fifo[0]
		q.fifo[0] = nil
		q.fifo = q.fifo[1:]
		heap.Remove(&q.heap, r.hidx)
	} else {
		r = heap.Pop(&q.heap).(*request)
		r.taken = true // pruned off the FIFO lazily
	}
	return r.t
}

// reqHeap is a min-heap of requests by weight, ties broken by admission
// order so equal-weight tenants are served FIFO.
type reqHeap []*request

func (h reqHeap) Len() int { return len(h) }
func (h reqHeap) Less(i, j int) bool {
	if h[i].weight != h[j].weight {
		return h[i].weight < h[j].weight
	}
	return h[i].seq < h[j].seq
}
func (h reqHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].hidx = i
	h[j].hidx = j
}
func (h *reqHeap) Push(x any) {
	r := x.(*request)
	r.hidx = len(*h)
	*h = append(*h, r)
}
func (h *reqHeap) Pop() any {
	old := *h
	n := len(old)
	r := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return r
}
