package ckpt_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ickpt/ckpt"
	"ickpt/internal/synth"
)

// trackedFixture builds n points as separate roots (ascending ids), drains
// the construction-time modified flags with a full checkpoint, and watches
// the population with a fresh tracker.
func trackedFixture(t *testing.T, n int) (*ckpt.Domain, []*point, []ckpt.Checkpointable, *ckpt.Tracker) {
	t.Helper()
	d := ckpt.NewDomain()
	pts := make([]*point, n)
	roots := make([]ckpt.Checkpointable, n)
	for i := range pts {
		pts[i] = newPoint(d, int64(i), int64(i), "t")
		roots[i] = pts[i]
	}
	drainFull(t, roots)
	tr := ckpt.NewTracker()
	d.AttachTracker(tr)
	if err := tr.Watch(roots...); err != nil {
		t.Fatal(err)
	}
	return d, pts, roots, tr
}

// drainFull takes a throwaway full checkpoint to clear every modified flag.
func drainFull(t *testing.T, roots []ckpt.Checkpointable) {
	t.Helper()
	w := ckpt.NewWriter()
	w.Start(ckpt.Full)
	for _, r := range roots {
		if err := w.Checkpoint(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
}

// dirtyBody takes one dirty incremental checkpoint of the tracker's queue.
func dirtyBody(t *testing.T, tr *ckpt.Tracker, s *ckpt.Session) ([]byte, uint64) {
	t.Helper()
	var opts []ckpt.WriterOption
	if s != nil {
		opts = append(opts, ckpt.WithSession(s))
	}
	w := ckpt.NewWriter(opts...)
	w.Start(ckpt.Incremental)
	if err := w.CheckpointDirty(tr, ckpt.EmitObject); err != nil {
		t.Fatal(err)
	}
	body, _, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return body, w.Epoch()
}

// TestDirtyFoldMatchesTraversal pins the core O(dirty) contract: for roots
// whose creation order is ascending-id order, the dirty fold's body is
// byte-identical to the generic incremental traversal over the same
// modification, and only the dirty objects are visited.
func TestDirtyFoldMatchesTraversal(t *testing.T) {
	// Two identically-built domains so ids (and bodies) line up.
	_, ptsA, _, tr := trackedFixture(t, 8)
	dB := ckpt.NewDomain()
	ptsB := make([]*point, 8)
	rootsB := make([]ckpt.Checkpointable, 8)
	for i := range ptsB {
		ptsB[i] = newPoint(dB, int64(i), int64(i), "t")
		rootsB[i] = ptsB[i]
	}
	drainFull(t, rootsB)

	for _, i := range []int{1, 4, 6} {
		ptsA[i].x += 10
		ptsA[i].info.Mark()
		ptsB[i].x += 10
		ptsB[i].info.SetModified()
	}
	if got := tr.Dirty(); got != 3 {
		t.Fatalf("Dirty() = %d, want 3", got)
	}

	w := ckpt.NewWriter()
	w.Start(ckpt.Incremental)
	if err := w.CheckpointDirty(tr, ckpt.EmitObject); err != nil {
		t.Fatal(err)
	}
	dirty, dstats, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}

	wB := ckpt.NewWriter()
	wB.Start(ckpt.Incremental)
	for _, r := range rootsB {
		if err := wB.Checkpoint(r); err != nil {
			t.Fatal(err)
		}
	}
	trav, tstats, err := wB.Finish()
	if err != nil {
		t.Fatal(err)
	}

	if string(dirty) != string(trav) {
		t.Fatalf("dirty body (%d bytes) != traversal body (%d bytes)", len(dirty), len(trav))
	}
	if dstats.Visited != 3 {
		t.Fatalf("dirty fold visited %d objects, want 3", dstats.Visited)
	}
	if tstats.Visited != 8 {
		t.Fatalf("traversal visited %d objects, want 8", tstats.Visited)
	}
	for i, p := range ptsA {
		if p.info.Modified() {
			t.Fatalf("point %d still modified after dirty fold", i)
		}
	}
	if tr.Dirty() != 0 {
		t.Fatal("queue not drained by Take")
	}
}

// TestDirtyFoldVisitsDirtySet counts the O(dirty) claim across modification
// densities on the synthetic workload: the dirty fold visits exactly the
// objects modified since the last epoch, the incremental traversal every live
// object, whatever the density. Twin populations keep either strategy from
// consuming the other's flags.
func TestDirtyFoldVisitsDirtySet(t *testing.T) {
	shape := synth.Shape{Structures: 40, ListLen: 5, Kind: synth.Ints10}
	for _, density := range []float64{0.001, 0.01, 1} {
		trav, dirty := synth.Build(shape), synth.Build(shape)
		for _, w := range []*synth.Workload{trav, dirty} {
			if err := w.Drain(); err != nil {
				t.Fatal(err)
			}
		}
		tr := ckpt.NewTracker()
		dirty.Domain.AttachTracker(tr)
		if err := tr.Watch(dirty.Roots()...); err != nil {
			t.Fatal(err)
		}
		for epoch := 0; epoch < 2; epoch++ {
			trav.MutateEvery(density)
			modified := dirty.MutateEvery(density)

			w := ckpt.NewWriter()
			w.Start(ckpt.Incremental)
			if err := trav.CheckpointGeneric(w); err != nil {
				t.Fatal(err)
			}
			_, tstats, err := w.Finish()
			if err != nil {
				t.Fatal(err)
			}
			w.Start(ckpt.Incremental)
			if err := w.CheckpointDirty(tr, nil); err != nil {
				t.Fatal(err)
			}
			_, dstats, err := w.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if dstats.Visited != modified {
				t.Errorf("density %g epoch %d: dirty fold visited %d, modified %d", density, epoch, dstats.Visited, modified)
			}
			if live := trav.Objects(); tstats.Visited != live {
				t.Errorf("density %g epoch %d: traversal visited %d, live %d", density, epoch, tstats.Visited, live)
			}
		}
	}
}

// TestMarkIdempotent: marking the same object repeatedly enqueues it once.
func TestMarkIdempotent(t *testing.T) {
	_, pts, _, tr := trackedFixture(t, 3)
	for i := 0; i < 5; i++ {
		pts[1].info.Mark()
	}
	if got := tr.Dirty(); got != 1 {
		t.Fatalf("Dirty() = %d after repeated Mark, want 1", got)
	}
	body, _ := dirtyBody(t, tr, nil)
	if len(body) == 0 {
		t.Fatal("empty body")
	}
	// Re-marking after the drain enqueues again: the queued bit was cleared.
	pts[1].info.Mark()
	if got := tr.Dirty(); got != 1 {
		t.Fatalf("Dirty() = %d after post-drain Mark, want 1", got)
	}
}

// TestTakeDropsStaleEntries: an entry whose flag a traversal fold cleared in
// between Mark and Take is dropped, not re-encoded.
func TestTakeDropsStaleEntries(t *testing.T) {
	_, pts, roots, tr := trackedFixture(t, 4)
	pts[0].info.Mark()
	pts[2].info.Mark()
	drainFull(t, roots) // clears both flags; queue entries now stale
	pts[2].info.Mark()  // queued bit still set from before: no duplicate
	w := ckpt.NewWriter()
	w.Start(ckpt.Incremental)
	if err := w.CheckpointDirty(tr, ckpt.EmitObject); err != nil {
		t.Fatal(err)
	}
	_, stats, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Visited != 1 {
		t.Fatalf("visited %d, want 1 (only the re-marked point)", stats.Visited)
	}
	if tr.Degraded() {
		t.Fatal("stale entries must not degrade the tracker")
	}
}

// TestAbortReenqueues: Session.Abort re-marks the epoch's clear-set through
// Mark, so the aborted objects land back in the mark-queue and the retake
// rebuilds a byte-identical body.
func TestAbortReenqueues(t *testing.T) {
	_, pts, _, tr := trackedFixture(t, 6)
	s := ckpt.NewSession()
	for _, i := range []int{0, 3, 5} {
		pts[i].x++
		pts[i].info.Mark()
	}
	first, epoch := dirtyBody(t, tr, s)
	if tr.Dirty() != 0 {
		t.Fatal("queue should be empty after the fold")
	}
	if got := s.Abort(epoch); got != 3 {
		t.Fatalf("Abort re-marked %d, want 3", got)
	}
	if got := tr.Dirty(); got != 3 {
		t.Fatalf("Dirty() = %d after abort, want 3 (re-enqueued)", got)
	}
	retake, _ := dirtyBody(t, tr, s)
	if withoutEpoch(t, first) != withoutEpoch(t, retake) {
		t.Fatal("retake after abort is not byte-identical (modulo epoch)")
	}
}

// withoutEpoch renders a body's record stream (ids, types, payloads) without
// the epoch header, so bodies from different epochs can be compared
// record-for-record.
func withoutEpoch(t *testing.T, body []byte) string {
	t.Helper()
	var b []byte
	_, err := ckpt.InspectBodyKinds(body, func(id uint64, typ ckpt.TypeID, _ byte, payload []byte) error {
		b = append(b, fmt.Sprintf("%d/%d:%x;", id, typ, payload)...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMarkDuringFold: an object marked while the dirty fold is draining the
// previous take is queued for the NEXT take, never lost and never folded
// into the in-flight body.
func TestMarkDuringFold(t *testing.T) {
	_, pts, _, tr := trackedFixture(t, 4)
	pts[0].x++
	pts[0].info.Mark()
	marked := false
	emit := func(em *ckpt.Emitter, o ckpt.Checkpointable) error {
		if !marked {
			marked = true
			pts[3].x++
			pts[3].info.Mark()
		}
		return ckpt.EmitObject(em, o)
	}
	w := ckpt.NewWriter()
	w.Start(ckpt.Incremental)
	if err := w.CheckpointDirty(tr, emit); err != nil {
		t.Fatal(err)
	}
	_, stats, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Visited != 1 {
		t.Fatalf("in-flight fold visited %d, want 1", stats.Visited)
	}
	if got := tr.Dirty(); got != 1 {
		t.Fatalf("Dirty() = %d, want 1 (the mid-fold mark)", got)
	}
	_, nstats, _ := takeStats(t, tr)
	if nstats.Visited != 1 {
		t.Fatalf("next fold visited %d, want 1", nstats.Visited)
	}
	if pts[3].info.Modified() {
		t.Fatal("mid-fold mark not folded by the next take")
	}
}

func takeStats(t *testing.T, tr *ckpt.Tracker) ([]byte, ckpt.Stats, error) {
	t.Helper()
	w := ckpt.NewWriter()
	w.Start(ckpt.Incremental)
	if err := w.CheckpointDirty(tr, ckpt.EmitObject); err != nil {
		t.Fatal(err)
	}
	return w.Finish()
}

// TestFreshAllocationDegrades: an object allocated under an attached domain
// after Watch is invisible to the view; the tracker degrades rather than
// deliver an incomplete dirty set, NextMode forces Full, and a Full
// traversal followed by Watch restores O(dirty) operation.
func TestFreshAllocationDegrades(t *testing.T) {
	d, _, roots, tr := trackedFixture(t, 3)
	p := newPoint(d, 99, 99, "fresh") // modified at birth, not in the view
	roots = append(roots, p)
	if tr.Degraded() {
		t.Fatal("allocation alone must not degrade before Take")
	}
	tr.Take()
	if !tr.Degraded() {
		t.Fatal("Take with unsettled allocation must degrade")
	}
	if got := tr.NextMode(ckpt.Incremental); got != ckpt.Full {
		t.Fatalf("NextMode = %v while degraded, want Full", got)
	}
	if got := tr.NextMode(ckpt.Full); got != ckpt.Full {
		t.Fatalf("NextMode(Full) = %v, want Full", got)
	}
	// Recovery: Full traversal captures everything, Watch rebuilds the view.
	drainFull(t, roots)
	if err := tr.Watch(roots...); err != nil {
		t.Fatal(err)
	}
	if tr.Degraded() {
		t.Fatal("Watch must clear degradation")
	}
	if tr.Len() != 4 {
		t.Fatalf("view has %d objects after Watch, want 4", tr.Len())
	}
	if got := tr.NextMode(ckpt.Incremental); got != ckpt.Incremental {
		t.Fatalf("NextMode = %v after recovery, want Incremental", got)
	}
}

// TestTrackSettlesFreshDebt: Track-ing a freshly allocated object registers
// it and keeps the tracker healthy, so allocate-then-Track never costs a
// Full checkpoint.
func TestTrackSettlesFreshDebt(t *testing.T) {
	d, _, _, tr := trackedFixture(t, 2)
	p := newPoint(d, 7, 7, "new")
	tr.Track(p)
	objs := tr.Take()
	if tr.Degraded() {
		t.Fatal("tracked allocation must not degrade")
	}
	if len(objs) != 1 || objs[0] != ckpt.Checkpointable(p) {
		t.Fatalf("Take = %d objects, want the tracked point", len(objs))
	}
}

// TestIdentityMismatchDegrades: if the object registered under an id is no
// longer the one whose Info was marked (a by-value copy took its place), the
// tracker degrades instead of encoding the wrong object.
func TestIdentityMismatchDegrades(t *testing.T) {
	_, pts, _, tr := trackedFixture(t, 2)
	pts[1].info.Mark()
	clone := *pts[1] // same id, different Info address
	tr.Track(&clone)
	objs := tr.Take()
	if !tr.Degraded() {
		t.Fatal("identity mismatch must degrade")
	}
	if len(objs) != 0 {
		t.Fatalf("Take returned %d objects for a mismatched entry, want 0", len(objs))
	}
}

// TestQueuedCopyTrackedDegrades: a by-value copy of a queued object, Tracked
// in place of its original, carries the original's id and queued bit, so a
// dense scan would take it for the entry that was enqueued and find the
// live-entry count right. Whichever path the fold takes — Take's scan, the
// fused drain, or the sorted precise path — the tracker must degrade, and
// the body may hold only the genuinely dirty originals: neither the copy nor
// a clean object.
func TestQueuedCopyTrackedDegrades(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		marks []int
		emit  ckpt.EmitOne
	}{
		{"scan", 8, []int{1, 4, 6}, ckpt.EmitObject},
		{"drain", 8, []int{1, 4, 6}, nil},
		{"precise", 64, []int{5, 50}, ckpt.EmitObject},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, pts, _, tr := trackedFixture(t, tc.n)
			for _, i := range tc.marks {
				pts[i].x++
				pts[i].info.Mark()
			}
			clone := *pts[tc.marks[0]]
			tr.Track(&clone)
			w := ckpt.NewWriter()
			w.Start(ckpt.Incremental)
			if err := w.CheckpointDirty(tr, tc.emit); err != nil {
				t.Fatal(err)
			}
			body, _, err := w.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Degraded() {
				t.Fatal("a tracked copy of a queued object must degrade the tracker")
			}
			var got, want []uint64
			if _, err := ckpt.InspectBodyKinds(body, func(id uint64, _ ckpt.TypeID, _ byte, _ []byte) error {
				got = append(got, id)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for _, i := range tc.marks[1:] {
				want = append(want, pts[i].info.ID())
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("body records ids %v, want %v (the dirty originals only)", got, want)
			}
		})
	}
}

// TestWatchReenqueuesModified: Watch over a graph with already-dirty objects
// queues them, so no pre-Watch mutation is lost.
func TestWatchReenqueuesModified(t *testing.T) {
	d := ckpt.NewDomain()
	var roots []ckpt.Checkpointable
	pts := make([]*point, 5)
	for i := range pts {
		pts[i] = newPoint(d, int64(i), 0, "w")
		roots = append(roots, pts[i])
	}
	drainFull(t, roots)
	pts[2].info.SetModified() // dirtied before any tracker exists
	tr := ckpt.NewTracker()
	if err := tr.Watch(roots...); err != nil {
		t.Fatal(err)
	}
	if got := tr.Dirty(); got != 1 {
		t.Fatalf("Dirty() = %d after Watch, want 1", got)
	}
	objs := tr.Take()
	if len(objs) != 1 || objs[0] != ckpt.Checkpointable(pts[2]) {
		t.Fatalf("Take = %v, want the pre-dirty point", objs)
	}
}

// TestDirtyFoldFailureRequeues: when an EmitOne fails mid-drain, the
// un-emitted tail is re-queued by CheckpointDirty and the emitted prefix is
// recovered by the session abort — together the retake covers the full set.
func TestDirtyFoldFailureRequeues(t *testing.T) {
	_, pts, _, tr := trackedFixture(t, 5)
	s := ckpt.NewSession()
	for _, i := range []int{0, 1, 2, 3} {
		pts[i].x++
		pts[i].info.Mark()
	}
	boom := errors.New("boom")
	n := 0
	emit := func(em *ckpt.Emitter, o ckpt.Checkpointable) error {
		if n == 2 {
			return boom
		}
		n++
		return ckpt.EmitObject(em, o)
	}
	w := ckpt.NewWriter(ckpt.WithSession(s))
	w.Start(ckpt.Incremental)
	if err := w.CheckpointDirty(tr, emit); !errors.Is(err, boom) {
		t.Fatalf("CheckpointDirty = %v, want boom", err)
	}
	if body, _, err := w.Finish(); !errors.Is(err, boom) || body != nil {
		t.Fatalf("Finish = %d bytes, %v; want nil body and boom", len(body), err)
	}
	// Finish aborted the doomed epoch through the session (re-marking the 2
	// emitted objects); CheckpointDirty re-queued the un-emitted tail.
	if got := tr.Dirty(); got != 4 {
		t.Fatalf("Dirty() = %d after failed fold, want 4", got)
	}
	body, _ := dirtyBody(t, tr, s)
	if len(body) == 0 {
		t.Fatal("empty retake body")
	}
	for _, i := range []int{0, 1, 2, 3} {
		if pts[i].info.Modified() {
			t.Fatalf("point %d not folded by the retake", i)
		}
	}
}

// TestCheckpointDirtyModeErrors: the dirty path refuses un-started writers
// and non-Incremental modes.
func TestCheckpointDirtyModeErrors(t *testing.T) {
	_, _, _, tr := trackedFixture(t, 1)
	w := ckpt.NewWriter()
	if err := w.CheckpointDirty(tr, ckpt.EmitObject); !errors.Is(err, ckpt.ErrNotStarted) {
		t.Fatalf("unstarted CheckpointDirty = %v, want ErrNotStarted", err)
	}
	w.Start(ckpt.Full)
	if err := w.CheckpointDirty(tr, ckpt.EmitObject); !errors.Is(err, ckpt.ErrDirtyMode) {
		t.Fatalf("Full-mode CheckpointDirty = %v, want ErrDirtyMode", err)
	}
}

// TestTrackerAsSessionResolver: a tracker doubles as the session's
// InfoResolver, so abort-after-restart style re-marks resolve through the
// same view the dirty index maintains.
func TestTrackerAsSessionResolver(t *testing.T) {
	_, pts, _, tr := trackedFixture(t, 3)
	s := ckpt.NewSession(ckpt.WithInfoResolver(tr.Resolve))
	pts[1].info.Mark()
	_, epoch := dirtyBody(t, tr, s)
	if got := s.Abort(epoch); got != 1 {
		t.Fatalf("Abort re-marked %d, want 1", got)
	}
	if got := tr.Dirty(); got != 1 {
		t.Fatalf("Dirty() = %d, want 1", got)
	}
}

// TestSteadyStateDirtyFoldAllocsZero proves the zero-allocation claim: after
// warm-up, a full mutate → Start → CheckpointDirty → Finish → Commit epoch
// allocates nothing — the mark-queue backing array, the taken slice, the
// encoder buffer, and the session's clear-set slices are all reused.
func TestSteadyStateDirtyFoldAllocsZero(t *testing.T) {
	_, pts, _, tr := trackedFixture(t, 64)
	s := ckpt.NewSession()
	w := ckpt.NewWriter(ckpt.WithSession(s))
	epoch := func() {
		for _, i := range []int{3, 17, 40, 63} {
			pts[i].x++
			pts[i].info.Mark()
		}
		w.Start(ckpt.Incremental)
		if err := w.CheckpointDirty(tr, ckpt.EmitObject); err != nil {
			t.Fatal(err)
		}
		if _, _, err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		if !s.Commit(w.Epoch()) {
			t.Fatal("epoch not pending at Commit")
		}
	}
	for i := 0; i < 3; i++ { // warm the pools and grow the backing arrays
		epoch()
	}
	if avg := testing.AllocsPerRun(50, epoch); avg != 0 {
		t.Fatalf("steady-state dirty epoch allocates %v per run, want 0", avg)
	}
}

// TestDirtyFoldNilEmitMatchesEmitObject: a nil emit selects the writer's
// direct virtual path (the fused dense drain when the dirty set is large
// enough, the sorted queue otherwise); either way the body must be
// byte-identical to the EmitObject path over the same marks.
func TestDirtyFoldNilEmitMatchesEmitObject(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		marks []int
	}{
		// 3 entries over 8 objects clears the dense-scan threshold: the
		// nil-emit side takes the fused drain.
		{"scan", 8, []int{1, 4, 6}},
		// 2 entries over 64 objects stays under it: sorted-queue path.
		{"sort", 64, []int{5, 50}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ptsA, _, trA := trackedFixture(t, tc.n)
			_, ptsB, _, trB := trackedFixture(t, tc.n)
			for _, i := range tc.marks {
				ptsA[i].x += 3
				ptsA[i].info.Mark()
				ptsB[i].x += 3
				ptsB[i].info.Mark()
			}
			w := ckpt.NewWriter()
			w.Start(ckpt.Incremental)
			if err := w.CheckpointDirty(trA, nil); err != nil {
				t.Fatal(err)
			}
			nilBody, nstats, err := w.Finish()
			if err != nil {
				t.Fatal(err)
			}
			emitBody, _ := dirtyBody(t, trB, nil)
			if string(nilBody) != string(emitBody) {
				t.Fatalf("nil-emit body (%d bytes) != EmitObject body (%d bytes)", len(nilBody), len(emitBody))
			}
			if nstats.Visited != len(tc.marks) {
				t.Fatalf("nil-emit fold visited %d, want %d", nstats.Visited, len(tc.marks))
			}
			if trA.Degraded() {
				t.Fatal("nil-emit fold must not degrade")
			}
		})
	}
}

// TestNilEmitFoldRecoversUnadopted: the fused drain only trusts adopted
// objects, so one marked before registration (a fresh allocation Marked and
// then Tracked) escapes the dense scan. The live-entry count disagrees, the
// precise path records exactly the remainder, and the epoch still captures
// the full dirty set without degrading.
func TestNilEmitFoldRecoversUnadopted(t *testing.T) {
	d, pts, _, tr := trackedFixture(t, 8)
	pts[3].x++
	pts[3].info.Mark()
	late := newPoint(d, 9, 9, "late") // fresh: Mark enqueues before Track adopts
	late.info.Mark()
	tr.Track(late)
	w := ckpt.NewWriter()
	w.Start(ckpt.Incremental)
	if err := w.CheckpointDirty(tr, nil); err != nil {
		t.Fatal(err)
	}
	body, stats, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Visited != 2 {
		t.Fatalf("fold visited %d, want 2", stats.Visited)
	}
	ids := make(map[uint64]bool)
	if _, err := ckpt.InspectBodyKinds(body, func(id uint64, _ ckpt.TypeID, _ byte, _ []byte) error {
		ids[id] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || !ids[pts[3].info.ID()] || !ids[late.info.ID()] {
		t.Fatalf("body records ids %v, want the adopted and the late object", ids)
	}
	if tr.Degraded() {
		t.Fatal("recovered under-capture must not degrade")
	}
	if pts[3].info.Modified() || late.info.Modified() {
		t.Fatal("dirty objects not cleared by the fold")
	}
}

// TestTakeDedupsRetiredReMark: ResetModified retires a queue entry, and a
// later Mark re-enqueues the same Info, so the queue can hold an object
// twice. The sorted precise path emits it once and stays healthy.
func TestTakeDedupsRetiredReMark(t *testing.T) {
	_, pts, _, tr := trackedFixture(t, 64)
	pts[3].x++
	pts[3].info.Mark()
	pts[3].info.ResetModified() // retire the entry without a fold
	pts[40].x++
	pts[40].info.Mark()
	pts[3].x++
	pts[3].info.Mark() // re-enqueue: the queue now holds pts[3] twice
	_, stats, err := takeStats(t, tr)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Visited != 2 {
		t.Fatalf("fold visited %d, want 2 (the duplicate entry must collapse)", stats.Visited)
	}
	if tr.Degraded() {
		t.Fatal("a retired-and-re-marked entry must not degrade")
	}
	if pts[3].info.Modified() || pts[40].info.Modified() {
		t.Fatal("marked objects not folded")
	}
}

// TestSteadyStateNilEmitDirtyFoldAllocsZero: the fused drain (nil emit, dirty
// set at the dense-scan threshold) is also a zero-allocation epoch in steady
// state.
func TestSteadyStateNilEmitDirtyFoldAllocsZero(t *testing.T) {
	_, pts, _, tr := trackedFixture(t, 64)
	s := ckpt.NewSession()
	w := ckpt.NewWriter(ckpt.WithSession(s))
	epoch := func() {
		// 4 entries over 64 objects sits exactly on the scan threshold, so
		// the fold takes the fused drain every epoch.
		for _, i := range []int{3, 17, 40, 63} {
			pts[i].x++
			pts[i].info.Mark()
		}
		w.Start(ckpt.Incremental)
		if err := w.CheckpointDirty(tr, nil); err != nil {
			t.Fatal(err)
		}
		if _, _, err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		if !s.Commit(w.Epoch()) {
			t.Fatal("epoch not pending at Commit")
		}
	}
	for i := 0; i < 3; i++ {
		epoch()
	}
	if avg := testing.AllocsPerRun(50, epoch); avg != 0 {
		t.Fatalf("steady-state nil-emit epoch allocates %v per run, want 0", avg)
	}
}

// takeModel is the contract Take is checked against: which Infos the queue
// holds (an Info joins when it is marked or Tracked while modified and not
// already queued, and leaves at Take, Watch or ResetModified), which object
// is registered under each id, and how many allocations are unsettled. Take
// must return the registered objects whose own Info is queued and modified,
// ascending by id and each once, and degrade exactly when a queued, modified
// Info is not the one registered under its id or an allocation is unsettled.
type takeModel struct {
	tr       *ckpt.Tracker
	view     map[uint64]*point
	queued   map[*ckpt.Info]bool
	queue    []*ckpt.Info
	fresh    int
	degraded bool
}

func (m *takeModel) enqueue(i *ckpt.Info) {
	if i.Modified() && !m.queued[i] {
		m.queued[i] = true
		m.queue = append(m.queue, i)
	}
}

func (m *takeModel) mark(p *point) {
	p.info.Mark()
	m.enqueue(&p.info)
}

func (m *takeModel) retire(p *point) {
	p.info.ResetModified()
	m.queued[&p.info] = false
}

func (m *takeModel) track(p *point, fresh bool) {
	m.tr.Track(p)
	m.view[p.info.ID()] = p
	if fresh {
		m.fresh--
	}
	m.enqueue(&p.info)
}

func (m *takeModel) watch(t *testing.T, roots []*point) {
	t.Helper()
	objs := make([]ckpt.Checkpointable, len(roots))
	for i, p := range roots {
		objs[i] = p
	}
	if err := m.tr.Watch(objs...); err != nil {
		t.Fatal(err)
	}
	for _, i := range m.queue {
		m.queued[i] = false
	}
	m.queue = m.queue[:0]
	clear(m.view)
	for _, p := range roots {
		m.view[p.info.ID()] = p
		m.queued[&p.info] = false
	}
	for _, p := range roots {
		m.enqueue(&p.info)
	}
	m.fresh, m.degraded = 0, false
}

// take returns the dirty set the contract calls for and retires the queue.
func (m *takeModel) take() []uint64 {
	set := map[uint64]bool{}
	for _, i := range m.queue {
		m.queued[i] = false
		if !i.Modified() {
			continue
		}
		if p := m.view[i.ID()]; p == nil || &p.info != i {
			m.degraded = true
			continue
		}
		set[i.ID()] = true
	}
	m.queue = m.queue[:0]
	if m.fresh > 0 {
		m.degraded = true
	}
	ids := make([]uint64, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// modelIDs draws n distinct ids for a scenario's population: below 4n for a
// dense view (crossing 2^8 or 2^16 with the population's size); spread over
// every bit length up to idLimit-1 = 2^48-1, each byte boundary's neighbours
// included, for a sparse one; or, for a shared one, 2^40 plus 16 random bits,
// so that the ids agree on every byte but the low two.
func modelIDs(rng *rand.Rand, n int, ids string) []uint64 {
	seen := map[uint64]bool{ckpt.NilID: true}
	var out []uint64
	add := func(id uint64) {
		if !seen[id] && len(out) < n {
			seen[id] = true
			out = append(out, id)
		}
	}
	if ids == "sparse" {
		for _, b := range []uint{8, 16, 32} {
			add(1<<b - 1)
			add(1 << b)
		}
		add(1<<48 - 1)
	}
	for len(out) < n {
		switch ids {
		case "dense":
			add(uint64(rng.Intn(4 * n)))
		case "sparse":
			add(rng.Uint64() >> (16 + rng.Intn(48)))
		case "shared":
			add(1<<40 | uint64(rng.Intn(1<<16)))
		}
	}
	return out
}

// TestTakeMatchesModel drives trackers through random marks, retired and
// re-marked entries, stale entries, by-value copies Tracked in place of
// their originals, and fresh objects (Tracked, or left unsettled), over
// dense and sparse id spaces reaching 2^48-1, with queues on both sides of
// the radix cutoff and of the dense-scan threshold, and checks every Take
// and every Degraded against takeModel.
func TestTakeMatchesModel(t *testing.T) {
	const seed0 = 4800
	for _, sc := range []struct {
		name string
		n    int
		ids  string // modelIDs' kind; "domain": issued by a Domain, which issues the fresh objects too
	}{
		{"dense-2^8", 300, "dense"},
		{"dense-2^16", 17000, "dense"},
		{"dense-domain", 2000, "domain"},
		{"sparse-2^48", 600, "sparse"},
		{"sparse-shared-bytes", 600, "shared"},
	} {
		for s := range 3 {
			seed := int64(seed0 + 10*s)
			t.Run(fmt.Sprintf("%s/seed=%d", sc.name, seed), func(t *testing.T) {
				t.Logf("seed %d", seed)
				takeModelRounds(t, rand.New(rand.NewSource(seed)), sc.n, sc.ids)
			})
		}
	}
}

func takeModelRounds(t *testing.T, rng *rand.Rand, n int, ids string) {
	tr := ckpt.NewTracker()
	m := &takeModel{tr: tr, view: map[uint64]*point{}, queued: map[*ckpt.Info]bool{}}
	d := ckpt.NewDomain()
	var roots []*point
	domain := ids == "domain"
	var spare []uint64 // unused ids for fresh objects
	if domain {
		for range n {
			roots = append(roots, newPoint(d, 0, 0, "m"))
		}
	} else {
		all := modelIDs(rng, n+n/4, ids)
		for _, id := range all[:n] {
			roots = append(roots, &point{info: ckpt.RestoredInfo(id)})
		}
		spare = all[n:]
	}
	m.watch(t, roots)
	d.AttachTracker(tr)
	m.take() // drain the construction-time flags
	for _, o := range tr.Take() {
		o.CheckpointInfo().ResetModified()
	}

	scan := n / 16
	lengths := []int{1, 5, 31, 32, 33, 64, scan - 1, scan, scan + 7, 3 * scan}
	for round := range 40 {
		k := lengths[rng.Intn(len(lengths))]
		var dups []*point
		for range k {
			p := roots[rng.Intn(len(roots))]
			m.mark(p)
			if rng.Intn(8) == 0 {
				dups = append(dups, p)
			}
		}
		for _, p := range dups { // retire, and usually re-mark: a duplicate entry
			m.retire(p)
			if rng.Intn(4) != 0 {
				m.mark(p)
			}
		}
		switch rng.Intn(10) {
		case 0: // a by-value copy registered in place of a (maybe queued) original
			i := rng.Intn(len(roots))
			c := *roots[i]
			m.queued[&c.info] = m.queued[&roots[i].info]
			roots[i] = &c
			m.track(&c, false)
			if rng.Intn(2) == 0 {
				m.mark(&c)
			}
		case 1, 2: // fresh objects, Tracked at once
			for range 1 + rng.Intn(3) {
				var p *point
				if domain {
					p = newPoint(d, 0, 0, "f")
					m.fresh++
				} else if len(spare) > 0 {
					p = &point{info: ckpt.RestoredInfo(spare[0])}
					p.info.SetModified()
					spare = spare[1:]
				} else {
					break
				}
				roots = append(roots, p)
				m.track(p, domain)
			}
		case 3: // an allocation left unsettled
			if domain {
				p := newPoint(d, 0, 0, "u")
				m.fresh++
				roots = append(roots, p)
				if rng.Intn(2) == 0 {
					m.mark(p)
				}
			}
		}

		want := m.take()
		taken := tr.Take()
		got := make([]uint64, len(taken))
		for i, o := range taken {
			got[i] = o.CheckpointInfo().ID()
			if m.view[got[i]] != o {
				t.Fatalf("round %d: Take returned an object not registered under id %d", round, got[i])
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("round %d (queue ≈ %d): Take returned %d ids, the model %d\n got %v\nwant %v",
				round, k, len(got), len(want), got, want)
		}
		if tr.Degraded() != m.degraded {
			t.Fatalf("round %d: Degraded() = %v, the model says %v", round, tr.Degraded(), m.degraded)
		}
		for _, o := range taken { // the fold records them
			o.CheckpointInfo().ResetModified()
		}
		if m.degraded {
			m.watch(t, roots)
		}
	}
}
