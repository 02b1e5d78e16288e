package ckpt

import "testing"

// TestClearSetPoolHoldsNoInfo: a retired clear-set's backing array must not
// keep the epoch's objects reachable. Every way an epoch resolves — commit,
// abort, the merge of a second set observed under the same epoch, and both
// sessionless settles — retires its array zeroed, so after them no pooled
// array holds an Info anywhere in its capacity.
func TestClearSetPoolHoldsNoInfo(t *testing.T) {
	d := NewDomain()
	infos := make([]Info, 64)
	for i := range infos {
		infos[i] = NewInfo(d)
	}
	set := func() []ClearEntry {
		c := getClears()
		for i := range infos {
			c = append(c, ClearEntry{ID: infos[i].ID(), Info: &infos[i]})
		}
		return c
	}

	s := NewSession()
	s.Observe(1, Incremental, set())
	s.Observe(1, Incremental, set()) // merged into the first, then retired
	s.Commit(1)
	s.Observe(2, Incremental, set())
	s.Abort(2)
	Settle(nil, nil, 3, Incremental, set(), nil, false)
	Settle(nil, nil, 4, Incremental, set(), nil, true)

	clearsPool.mu.Lock()
	defer clearsPool.mu.Unlock()
	if len(clearsPool.free) == 0 {
		t.Fatal("no clear-set was retired to the pool")
	}
	for _, arr := range clearsPool.free {
		for i, e := range arr[:cap(arr)] {
			if e.Info != nil {
				t.Fatalf("pooled clear-set (cap %d) still holds an Info at %d", cap(arr), i)
			}
		}
	}
}
