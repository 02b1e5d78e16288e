package ckpt_test

import (
	"testing"

	"ickpt/ckpt"
)

// TestFreshAllocationDegradationTrigger pins the degradation trigger count:
// a single un-adopted allocation under an attached domain is enough to force
// the next Take — and with it the whole epoch — to a Full traversal, while
// zero allocations keep the tracker on the incremental path.
func TestFreshAllocationDegradationTrigger(t *testing.T) {
	d, pts, _, tr := trackedFixture(t, 8)

	// No allocations: Take stays precise, NextMode stays Incremental.
	pts[0].x++
	pts[0].info.Mark()
	if got := len(tr.Take()); got != 1 {
		t.Fatalf("baseline take = %d objects, want 1", got)
	}
	if tr.Degraded() {
		t.Fatal("tracker degraded with no fresh allocations")
	}
	if mode := tr.NextMode(ckpt.Incremental); mode != ckpt.Incremental {
		t.Fatalf("NextMode = %v, want Incremental", mode)
	}

	// Exactly one fresh allocation, never adopted: the very next Take must
	// degrade — the dirty index cannot see the newborn.
	_ = newPoint(d, 9, 9, "orphan")
	pts[1].x++
	pts[1].info.Mark()
	tr.Take()
	if !tr.Degraded() {
		t.Fatal("one un-adopted allocation did not degrade the tracker")
	}
	if mode := tr.NextMode(ckpt.Incremental); mode != ckpt.Full {
		t.Fatalf("NextMode after fresh allocation = %v, want Full", mode)
	}
}

// TestAdoptKeepsIncremental is the churn regression: allocations that are
// adopted at the allocation site settle their fresh debt, so the tracker
// never degrades and the newborn itself is captured by the next dirty fold.
func TestAdoptKeepsIncremental(t *testing.T) {
	d, pts, _, tr := trackedFixture(t, 8)

	// A burst of adopted newborns plus one ordinary mutation.
	borns := make([]*point, 5)
	for i := range borns {
		borns[i] = newPoint(d, int64(100+i), 0, "newborn")
		d.Adopt(borns[i])
	}
	pts[3].y++
	pts[3].info.Mark()

	body, _ := dirtyBody(t, tr, nil)
	if tr.Degraded() {
		t.Fatal("adopted allocations degraded the tracker")
	}
	if mode := tr.NextMode(ckpt.Incremental); mode != ckpt.Incremental {
		t.Fatalf("NextMode = %v, want Incremental", mode)
	}
	var ids []uint64
	if _, err := ckpt.InspectBodyKinds(body, func(id uint64, _ ckpt.TypeID, _ byte, _ []byte) error {
		ids = append(ids, id)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []uint64{pts[3].info.ID()}
	for _, b := range borns {
		want = append(want, b.info.ID())
	}
	if len(ids) != len(want) {
		t.Fatalf("dirty body has %d records (%v), want %d (%v)", len(ids), ids, len(want), want)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("dirty body ids not ascending: %v", ids)
		}
	}
	seen := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		seen[id] = true
	}
	for _, id := range want {
		if !seen[id] {
			t.Fatalf("object %d missing from dirty body %v", id, ids)
		}
	}

	// Further marks on an adopted newborn keep flowing through the index.
	borns[2].x++
	borns[2].info.Mark()
	taken := tr.Take()
	if len(taken) != 1 || taken[0] != borns[2] {
		t.Fatalf("re-marked newborn not taken: %v", taken)
	}
	if tr.Degraded() {
		t.Fatal("tracker degraded after steady-state newborn mark")
	}
}

// TestAdoptWithoutTracker pins that Adopt is a safe no-op when the domain
// has no tracker attached, so allocation sites can call it unconditionally.
func TestAdoptWithoutTracker(t *testing.T) {
	d := ckpt.NewDomain()
	p := newPoint(d, 1, 2, "x")
	d.Adopt(p) // must not panic or register anywhere
	if !p.info.Modified() {
		t.Fatal("new object lost its modified flag")
	}
}
