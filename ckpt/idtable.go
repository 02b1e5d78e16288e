package ckpt

import (
	"math/bits"
	"slices"
)

// The dense part of an idTable is a run of pages that double: page 0 holds
// ids [0, 64), and page k ≥ 1 holds ids [64<<(k-1), 64<<k), so the first k
// pages hold exactly the ids below 64<<(k-1). Growing adds pages and never
// copies; grown to take id x, the pages cover fewer than max(64, 2x) ids.
const (
	pageBits  = 6
	firstPage = 1 << pageBits
)

// denseSlack is the id range an idTable indexes densely beyond twice its
// entries: the dense part grows to take an id while id ≤ 2 × (entries + 1) +
// denseSlack, so its pages never cover more than 4 × (entries + 1) +
// 2 × denseSlack ids, whatever ids a body names.
const denseSlack = 1024

// idTable holds one generation's entries by object id. Domain hands ids out
// densely from 1, so an id the dense part covers indexes its pages directly;
// an id past it goes to the overflow map, unless the density rule lets the
// dense part grow to take it. Churn and hostile bodies produce sparse ids,
// and those stay in the map: allocation follows the entries, not the ids.
// Every overflow id is at least t.dense; growing moves the overflow entries it
// now covers into the pages.
type idTable struct {
	pages [][]latestRec
	dense uint64 // the pages hold ids [0, dense)
	over  map[uint64]latestRec
	n     int // entries, dense and overflow
}

// slot returns the page entry of id, which must be below t.dense.
func (t *idTable) slot(id uint64) *latestRec {
	k := bits.Len64(id >> pageBits)
	if k > 0 {
		id -= 1 << (pageBits + k - 1)
	}
	return &t.pages[k][id]
}

// get returns id's entry and whether it has one.
func (t *idTable) get(id uint64) (latestRec, bool) {
	if id < t.dense {
		e := *t.slot(id)
		return e, e.present
	}
	e, ok := t.over[id]
	return e, ok
}

// put makes e id's entry.
func (t *idTable) put(id uint64, e latestRec) {
	e.present = true
	if id >= t.dense {
		if id > 2*uint64(t.n+1)+denseSlack {
			if t.over == nil {
				t.over = make(map[uint64]latestRec)
			}
			n := len(t.over)
			t.over[id] = e
			t.n += len(t.over) - n
			return
		}
		t.extend(id + 1)
	}
	p := t.slot(id)
	if !p.present {
		t.n++
	}
	*p = e
}

// extend adds pages until they cover the ids below end, and moves the
// overflow entries they now cover into them. Each page doubles what the
// pages cover, so a table moves each overflow entry at most once and scans
// the map once per doubling.
func (t *idTable) extend(end uint64) {
	if end <= t.dense {
		return
	}
	for t.dense < end {
		size := max(t.dense, firstPage)
		t.pages = append(t.pages, make([]latestRec, size))
		t.dense += size
	}
	for id, e := range t.over {
		if id < t.dense {
			*t.slot(id) = e
			delete(t.over, id)
		}
	}
}

// clear drops every entry and keeps the pages and the map for reuse. It
// costs the dense length, and nothing when the table is empty.
func (t *idTable) clear() {
	if t.n == 0 {
		return
	}
	for _, p := range t.pages {
		clear(p)
	}
	clear(t.over)
	t.n = 0
}

// overflowIDs returns the overflow ids in ascending order, nil if none.
func (t *idTable) overflowIDs() []uint64 {
	if len(t.over) == 0 {
		return nil
	}
	ids := make([]uint64, 0, len(t.over))
	for id := range t.over {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// walk calls fn for every entry — the pages in id order, then the overflow:
// in the order of over if it is non-nil (overflowIDs sorts it), else in map
// order — and stops at fn's first error. fn must not add entries.
func (t *idTable) walk(over []uint64, fn func(id uint64, e latestRec) error) error {
	var base uint64
	for _, p := range t.pages {
		for i := range p {
			if p[i].present {
				if err := fn(base+uint64(i), p[i]); err != nil {
					return err
				}
			}
		}
		base += uint64(len(p))
	}
	if over == nil {
		for id, e := range t.over {
			if err := fn(id, e); err != nil {
				return err
			}
		}
		return nil
	}
	for _, id := range over {
		if err := fn(id, t.over[id]); err != nil {
			return err
		}
	}
	return nil
}
