package ckpt_test

import (
	"testing"

	"ickpt/ckpt"
)

// TestSlabStableAddresses pins the property the dirty index depends on:
// pointers handed out by New stay valid and distinct across block
// boundaries (a moved object would leave the tracker's view and mark-queue
// pointing at an Info the object no longer embeds).
func TestSlabStableAddresses(t *testing.T) {
	var s ckpt.Slab[point]
	const n = 1000 // crosses several 256-object blocks
	ptrs := make([]*point, n)
	for i := range ptrs {
		ptrs[i] = s.New()
		ptrs[i].x = int64(i)
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	seen := make(map[*point]bool, n)
	for i, p := range ptrs {
		if p.x != int64(i) {
			t.Fatalf("object %d: x = %d (block moved or reused?)", i, p.x)
		}
		if seen[p] {
			t.Fatalf("object %d: address handed out twice", i)
		}
		seen[p] = true
	}
}

// TestSlabTrackedObjects allocates Info-bearing objects from a slab,
// adopts them into a tracker, and drains a dirty fold: the slab composes
// with the full dirty-index protocol.
func TestSlabTrackedObjects(t *testing.T) {
	d, _, _, tr := trackedFixture(t, 4)
	var s ckpt.Slab[point]
	var borns []*point
	for i := 0; i < 300; i++ {
		p := s.New()
		p.info = ckpt.NewInfo(d)
		p.x = int64(i)
		d.Adopt(p)
		borns = append(borns, p)
	}
	taken := tr.Take()
	if tr.Degraded() {
		t.Fatal("slab-allocated adopted objects degraded the tracker")
	}
	if len(taken) != len(borns) {
		t.Fatalf("take = %d objects, want %d", len(taken), len(borns))
	}
}
