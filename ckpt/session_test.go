package ckpt_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"ickpt/ckpt"
	"ickpt/internal/faultfs"
	"ickpt/stablelog"
	"ickpt/wire"
)

// tripwire is a checkpointable whose Fold fails on demand after its own
// record was already framed — the mid-traversal failure that clears flags
// and then dooms the body.
type tripwire struct {
	info ckpt.Info
	fail error
}

func newTripwire(d *ckpt.Domain, fail error) *tripwire {
	return &tripwire{info: ckpt.NewInfo(d), fail: fail}
}

func (tw *tripwire) CheckpointInfo() *ckpt.Info    { return &tw.info }
func (tw *tripwire) CheckpointTypeID() ckpt.TypeID { return ckpt.TypeIDOf("ckpttest.tripwire") }
func (tw *tripwire) Record(e *wire.Encoder)        { e.Varint(1) }
func (tw *tripwire) Fold(w *ckpt.Writer) error     { return tw.fail }

// modifiedRoots builds a domain with n modified points plus one tripwire
// appended last, all as separate roots.
func sessionFixture(n int, fail error) (*ckpt.Domain, []ckpt.Checkpointable) {
	d := ckpt.NewDomain()
	roots := make([]ckpt.Checkpointable, 0, n+1)
	for i := 0; i < n; i++ {
		p := newPoint(d, int64(i), int64(i), "s")
		p.info.SetModified()
		roots = append(roots, p)
	}
	if fail != nil {
		tw := newTripwire(d, fail)
		tw.info.SetModified()
		roots = append(roots, tw)
	}
	return d, roots
}

func modifiedCount(roots []ckpt.Checkpointable) int {
	n := 0
	for _, r := range roots {
		if r.CheckpointInfo().Modified() {
			n++
		}
	}
	return n
}

// TestSessionCommitAndAbort: a successful epoch's clear-set stays pending
// until the session resolves it; Commit drops it, Abort re-marks it.
func TestSessionCommitAndAbort(t *testing.T) {
	for _, commit := range []bool{true, false} {
		name := "abort"
		if commit {
			name = "commit"
		}
		t.Run(name, func(t *testing.T) {
			_, roots := sessionFixture(4, nil)
			s := ckpt.NewSession()
			w := ckpt.NewWriter(ckpt.WithSession(s))
			w.Start(ckpt.Incremental)
			for _, r := range roots {
				if err := w.Checkpoint(r); err != nil {
					t.Fatal(err)
				}
			}
			body, _, err := w.Finish()
			if err != nil || len(body) == 0 {
				t.Fatalf("Finish = %d bytes, %v", len(body), err)
			}
			if got := modifiedCount(roots); got != 0 {
				t.Fatalf("%d flags still set after encode, want 0", got)
			}
			if s.Pending() != 1 {
				t.Fatalf("pending = %d, want 1", s.Pending())
			}
			if commit {
				if !s.Commit(w.Epoch()) {
					t.Fatal("Commit reported epoch not pending")
				}
				if got := modifiedCount(roots); got != 0 {
					t.Fatalf("commit re-marked %d flags", got)
				}
			} else {
				if got := s.Abort(w.Epoch()); got != 4 {
					t.Fatalf("Abort re-marked %d, want 4", got)
				}
				if got := modifiedCount(roots); got != 4 {
					t.Fatalf("%d flags set after abort, want 4", got)
				}
			}
			if s.Pending() != 0 {
				t.Fatalf("pending = %d after resolve, want 0", s.Pending())
			}
		})
	}
}

// TestFinishRefusesHalfBuiltBody pins the contract that a failed fold never
// hands out a truncated body: Finish returns a nil body and the visit error,
// and the flags the partial encode cleared are re-marked so the next
// incremental checkpoint recaptures the state the discarded body carried.
func TestFinishRefusesHalfBuiltBody(t *testing.T) {
	boom := errors.New("boom")
	for _, withSession := range []bool{false, true} {
		t.Run(fmt.Sprintf("session=%v", withSession), func(t *testing.T) {
			_, roots := sessionFixture(3, boom)
			var opts []ckpt.WriterOption
			s := ckpt.NewSession()
			if withSession {
				opts = append(opts, ckpt.WithSession(s))
			}
			w := ckpt.NewWriter(opts...)
			w.Start(ckpt.Incremental)
			sawErr := false
			for _, r := range roots {
				if err := w.Checkpoint(r); err != nil {
					sawErr = true
				}
			}
			if !sawErr {
				t.Fatal("no Checkpoint call failed")
			}
			body, _, err := w.Finish()
			if !errors.Is(err, boom) {
				t.Fatalf("Finish error = %v, want wrapped boom", err)
			}
			if body != nil {
				t.Fatalf("Finish returned a %d-byte half-built body, want nil", len(body))
			}
			// All four objects were recorded (the tripwire fails in Fold,
			// after its own record) — every cleared flag must be back.
			if got := modifiedCount(roots); got != 4 {
				t.Fatalf("%d flags set after failed Finish, want 4", got)
			}
			if withSession {
				st := s.Stats()
				if st.Aborts != 1 || st.Remarked != 4 || s.Pending() != 0 {
					t.Fatalf("session stats = %+v, pending = %d; want 1 abort re-marking 4", st, s.Pending())
				}
			}
		})
	}
}

// TestStartAbandonsUnfinishedEpoch: Start over a body in progress aborts it —
// the discarded records' flags are re-marked, not silently lost.
func TestStartAbandonsUnfinishedEpoch(t *testing.T) {
	_, roots := sessionFixture(3, nil)
	w := ckpt.NewWriter()
	w.Start(ckpt.Incremental)
	for _, r := range roots {
		if err := w.Checkpoint(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := modifiedCount(roots); got != 0 {
		t.Fatalf("%d flags set mid-epoch, want 0", got)
	}
	w.Start(ckpt.Incremental) // discard without Finish
	if got := modifiedCount(roots); got != 3 {
		t.Fatalf("%d flags set after abandoned Start, want 3 re-marked", got)
	}
	if _, _, err := w.Finish(); err != nil {
		t.Fatalf("empty Finish: %v", err)
	}
}

// TestSessionAck routes persistence acknowledgements: nil commits, an error
// aborts — the glue between the session and stablelog.WithAck. An aborting
// ack writes no flag itself: it parks the re-marks, and the next epoch's
// start applies them.
func TestSessionAck(t *testing.T) {
	_, roots := sessionFixture(2, nil)
	s := ckpt.NewSession()
	w := ckpt.NewWriter(ckpt.WithSession(s))

	w.Start(ckpt.Incremental)
	for _, r := range roots {
		if err := w.Checkpoint(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	s.Ack(w.Epoch(), nil)
	if got := modifiedCount(roots); got != 0 {
		t.Fatalf("nil ack re-marked %d flags", got)
	}

	for _, r := range roots {
		r.CheckpointInfo().SetModified()
	}
	w.Start(ckpt.Incremental)
	for _, r := range roots {
		if err := w.Checkpoint(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	s.Ack(w.Epoch(), errors.New("disk on fire"))
	if got := modifiedCount(roots); got != 0 {
		t.Fatalf("error ack re-marked %d flags in place, want 0 (parked)", got)
	}
	w.Start(ckpt.Incremental)
	if got := modifiedCount(roots); got != 2 {
		t.Fatalf("the next Start re-marked %d flags, want 2", got)
	}
	st := s.Stats()
	if st.Commits != 1 || st.Aborts != 1 {
		t.Fatalf("stats = %+v, want 1 commit + 1 abort", st)
	}
}

// TestSessionAbortAll aborts every in-flight epoch at once — the teardown
// path after a sticky sink error.
func TestSessionAbortAll(t *testing.T) {
	_, rootsA := sessionFixture(2, nil)
	_, rootsB := sessionFixture(3, nil)
	s := ckpt.NewSession()
	w := ckpt.NewWriter(ckpt.WithSession(s))
	for _, roots := range [][]ckpt.Checkpointable{rootsA, rootsB} {
		w.Start(ckpt.Incremental)
		for _, r := range roots {
			if err := w.Checkpoint(r); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := w.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
	if got := s.AbortAll(); got != 5 {
		t.Fatalf("AbortAll re-marked %d, want 5", got)
	}
	if got := modifiedCount(rootsA) + modifiedCount(rootsB); got != 5 {
		t.Fatalf("%d flags set after AbortAll, want 5", got)
	}
}

// TestSessionAbortIsSticky: a sink that loses one delta-encoded body and
// persists the next. The later body diffs against the lost one's payload, so
// the session aborts it with the lost one; its late nil ack commits nothing
// and forces a Full, and the log recovers from that anchor without
// ErrDeltaBase.
func TestSessionAbortIsSticky(t *testing.T) {
	lg, err := stablelog.Create("sticky.log", stablelog.WithFS(faultfs.NewMem()))
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	b := newBlob(ckpt.NewDomain(), 2048, 1)
	s := ckpt.NewSession()
	w := ckpt.NewWriter(ckpt.WithSession(s), ckpt.WithDeltaEncoding(64))
	take := func(mode ckpt.Mode) (ckpt.Mode, []byte, uint64) {
		t.Helper()
		w.Start(mode)
		if err := w.Checkpoint(b); err != nil {
			t.Fatal(err)
		}
		body, _, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return mode, bytes.Clone(body), w.Epoch()
	}
	persist := func(mode ckpt.Mode, body []byte, epoch uint64) {
		t.Helper()
		if _, err := lg.Append(mode, epoch, body); err != nil {
			t.Fatal(err)
		}
		s.Ack(epoch, nil)
	}

	persist(take(ckpt.Full))
	b.poke(10)
	_, _, lost := take(ckpt.Incremental)
	b.poke(20)
	mode, body, epoch := take(ckpt.Incremental)
	s.Ack(lost, errors.New("dropped"))
	persist(mode, body, epoch)

	b.poke(30)
	if mode = s.NextMode(ckpt.Incremental); mode != ckpt.Full {
		t.Errorf("next mode after a late ack = %v, want Full", mode)
	}
	persist(take(mode))
	if st := s.Stats(); st.LateAcks != 1 || st.Commits != 2 || st.Aborts != 2 {
		t.Errorf("stats = %+v, want 1 late ack, 2 commits, 2 aborts", st)
	}

	rb := ckpt.NewRebuilder(blobRegistry(t))
	if err := lg.Recover(rb); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	objs, err := rb.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := objs[b.info.ID()].(*blob); !bytes.Equal(got.data, b.data) {
		t.Fatal("recovered blob differs from the live one")
	}
}

// TestSessionResolverAndDegradation: an abort resolves ids through the
// session's resolver; ids it cannot cover degrade the session, NextMode
// forces Full until a Full epoch commits.
func TestSessionResolverAndDegradation(t *testing.T) {
	_, roots := sessionFixture(3, nil)
	idx, err := ckpt.IndexRoots(roots...)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 3 {
		t.Fatalf("index covers %d objects, want 3", idx.Len())
	}
	// Resolver that loses the last root, as if it were freed after encode.
	lost := roots[2].CheckpointInfo().ID()
	s := ckpt.NewSession(ckpt.WithInfoResolver(func(id uint64) *ckpt.Info {
		if id == lost {
			return nil
		}
		return idx.Resolve(id)
	}))
	w := ckpt.NewWriter(ckpt.WithSession(s))
	w.Start(ckpt.Incremental)
	for _, r := range roots {
		if err := w.Checkpoint(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := s.Abort(w.Epoch()); got != 2 {
		t.Fatalf("Abort re-marked %d, want 2 (one id unresolved)", got)
	}
	if !s.Degraded() {
		t.Fatal("session not degraded after unresolved id")
	}
	if got := s.NextMode(ckpt.Incremental); got != ckpt.Full {
		t.Fatalf("NextMode(Incremental) = %v while degraded, want Full", got)
	}
	st := s.Stats()
	if st.Unresolved != 1 || st.ForcedFull != 1 {
		t.Fatalf("stats = %+v, want 1 unresolved + 1 forced full", st)
	}

	// A committed Full epoch recaptures everything live: degradation clears.
	w.Start(s.NextMode(ckpt.Incremental))
	for _, r := range roots {
		if err := w.Checkpoint(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	s.Commit(w.Epoch())
	if s.Degraded() {
		t.Fatal("session still degraded after committed Full epoch")
	}
	if got := s.NextMode(ckpt.Incremental); got != ckpt.Incremental {
		t.Fatalf("NextMode after recovery = %v, want Incremental", got)
	}
}

// TestSessionObserveMergesRetake: observing an epoch already pending merges
// the clear-sets, so a retake under the same epoch number after a partial
// failure aborts as one unit.
func TestSessionObserveMergesRetake(t *testing.T) {
	_, roots := sessionFixture(2, nil)
	s := ckpt.NewSession()
	a, b := roots[0].CheckpointInfo(), roots[1].CheckpointInfo()
	s.Observe(7, ckpt.Incremental, []ckpt.ClearEntry{{ID: a.ID(), Info: a}})
	s.Observe(7, ckpt.Incremental, []ckpt.ClearEntry{{ID: b.ID(), Info: b}})
	if got := s.Stats().Epochs; got != 1 {
		t.Fatalf("epochs = %d, want 1 (merged)", got)
	}
	a.ResetModified()
	b.ResetModified()
	if got := s.Abort(7); got != 2 {
		t.Fatalf("Abort re-marked %d, want both merged entries", got)
	}
}

// TestIndexRootsDoesNotDisturbFlags: building the abort-time index traverses
// the graph without recording anything or touching any modified flag.
func TestIndexRootsDoesNotDisturbFlags(t *testing.T) {
	d := ckpt.NewDomain()
	head := newPoint(d, 1, 2, "head")
	head.next = newPoint(d, 3, 4, "tail")
	b := newBox(d, 9)
	b.head = head
	// Mixed flag states must survive indexing: only head is dirty.
	b.info.ResetModified()
	head.next.info.ResetModified()
	head.info.SetModified()

	idx, err := ckpt.IndexRoots(b)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 3 {
		t.Fatalf("index covers %d objects, want 3", idx.Len())
	}
	if !head.info.Modified() || head.next.info.Modified() || b.info.Modified() {
		t.Fatal("IndexRoots disturbed modified flags")
	}
	if got := idx.Resolve(head.info.ID()); got != &head.info {
		t.Fatal("Resolve returned the wrong Info")
	}
	if got := idx.Resolve(1 << 40); got != nil {
		t.Fatalf("Resolve of unknown id = %v, want nil", got)
	}
}

// TestSessionConcurrentAcks exercises the session's concurrency contract
// under the race detector: acknowledgements arrive from background writer
// goroutines while the application observes new epochs and polls the mode.
func TestSessionConcurrentAcks(t *testing.T) {
	d := ckpt.NewDomain()
	infos := make([]ckpt.Info, 64)
	for i := range infos {
		infos[i] = ckpt.NewInfo(d)
	}
	s := ckpt.NewSession()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := uint64(1); e <= 50; e++ {
				epoch := uint64(g)*1000 + e
				info := &infos[int(epoch)%len(infos)]
				s.Observe(epoch, ckpt.Incremental,
					[]ckpt.ClearEntry{{ID: info.ID(), Info: info}})
				if e%3 == 0 {
					s.Ack(epoch, errors.New("lost"))
				} else {
					s.Ack(epoch, nil)
				}
				s.NextMode(ckpt.Incremental)
				s.Degraded()
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Epochs != 200 || st.Commits+st.Aborts != 200 || s.Pending() != 0 {
		t.Fatalf("stats = %+v, pending = %d; want 200 epochs all resolved", st, s.Pending())
	}
}

// TestSessionAckOffGoroutine: the log's goroutine acks a lost epoch of
// tracked objects while the application marks others. The ack must leave the
// tracker's mark-queue alone (go test -race fails otherwise), and the next
// epoch records the lost objects along with the newly marked ones.
func TestSessionAckOffGoroutine(t *testing.T) {
	_, pts, _, tr := trackedFixture(t, 64)
	s := ckpt.NewSession()
	w := ckpt.NewWriter(ckpt.WithSession(s))
	for _, p := range pts[:8] {
		p.info.Mark()
	}
	w.Start(ckpt.Incremental)
	if err := w.CheckpointDirty(tr, ckpt.EmitObject); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}

	lost := w.Epoch()
	acked := make(chan struct{})
	go func() {
		defer close(acked)
		s.Ack(lost, errors.New("dropped"))
	}()
	for _, p := range pts[8:] {
		p.info.Mark()
	}
	<-acked

	w.Start(ckpt.Incremental)
	if err := w.CheckpointDirty(tr, ckpt.EmitObject); err != nil {
		t.Fatal(err)
	}
	_, stats, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recorded != len(pts) {
		t.Errorf("the epoch after the lost one recorded %d objects, want %d (8 lost, 56 marked)", stats.Recorded, len(pts))
	}
	if st := s.Stats(); st.Aborts != 1 || st.Remarked != 8 {
		t.Errorf("stats = %+v, want 1 abort re-marking 8 objects", st)
	}
}

// TestSessionAckLeavesInfosAlone: the log's goroutine acks a lost epoch while
// the application marks the very objects that epoch recorded. Ack must write
// no Info, tracked or untracked (go test -race fails otherwise), and the next
// epoch records every object the lost one did.
func TestSessionAckLeavesInfosAlone(t *testing.T) {
	for _, tracked := range []bool{true, false} {
		t.Run(fmt.Sprintf("tracked=%v", tracked), func(t *testing.T) {
			var roots []ckpt.Checkpointable
			var tr *ckpt.Tracker
			if tracked {
				_, _, roots, tr = trackedFixture(t, 64)
				for _, r := range roots {
					r.CheckpointInfo().Mark()
				}
			} else {
				_, roots = sessionFixture(64, nil)
			}
			s := ckpt.NewSession()
			w := ckpt.NewWriter(ckpt.WithSession(s))
			epoch := func() ckpt.Stats {
				t.Helper()
				w.Start(ckpt.Incremental)
				if tracked {
					if err := w.CheckpointDirty(tr, ckpt.EmitObject); err != nil {
						t.Fatal(err)
					}
				} else {
					for _, r := range roots {
						if err := w.Checkpoint(r); err != nil {
							t.Fatal(err)
						}
					}
				}
				_, stats, err := w.Finish()
				if err != nil {
					t.Fatal(err)
				}
				return stats
			}
			if got := epoch().Recorded; got != len(roots) {
				t.Fatalf("first epoch recorded %d objects, want %d", got, len(roots))
			}

			lost := w.Epoch()
			acked := make(chan struct{})
			go func() {
				defer close(acked)
				s.Ack(lost, errors.New("dropped"))
			}()
			for _, r := range roots[:32] {
				r.CheckpointInfo().Mark()
			}
			<-acked

			if got := epoch().Recorded; got != len(roots) {
				t.Errorf("the epoch after the lost one recorded %d objects, want %d", got, len(roots))
			}
			if st := s.Stats(); st.Aborts != 1 || st.Remarked != len(roots) {
				t.Errorf("stats = %+v, want 1 abort re-marking %d objects", st, len(roots))
			}
		})
	}
}

// TestSessionAckLeavesResolverAlone: the log's goroutine acks a lost epoch
// while the application adopts new objects into the tracker whose view the
// session's resolver reads. Ack must not call the resolver (go test -race
// fails otherwise); the next epoch's start resolves and re-marks the lost
// epoch's objects, and records them with the newborns.
func TestSessionAckLeavesResolverAlone(t *testing.T) {
	d, pts, _, tr := trackedFixture(t, 64)
	s := ckpt.NewSession(ckpt.WithInfoResolver(tr.Resolve))
	w := ckpt.NewWriter(ckpt.WithSession(s))
	for _, p := range pts {
		p.info.Mark()
	}
	w.Start(ckpt.Incremental)
	if err := w.CheckpointDirty(tr, ckpt.EmitObject); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}

	lost := w.Epoch()
	acked := make(chan struct{})
	go func() {
		defer close(acked)
		s.Ack(lost, errors.New("dropped"))
	}()
	for i := range pts {
		d.Adopt(newPoint(d, int64(100+i), 0, "newborn"))
	}
	<-acked

	w.Start(ckpt.Incremental)
	if err := w.CheckpointDirty(tr, ckpt.EmitObject); err != nil {
		t.Fatal(err)
	}
	_, stats, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(pts); stats.Recorded != want {
		t.Errorf("the epoch after the lost one recorded %d objects, want %d (64 lost, 64 adopted)", stats.Recorded, want)
	}
	if st := s.Stats(); st.Aborts != 1 || st.Remarked != len(pts) || st.Unresolved != 0 {
		t.Errorf("stats = %+v, want 1 abort re-marking %d objects", st, len(pts))
	}
}

// TestSessionAckUnresolvedForcesFull: an entry an aborting Ack parked that
// the resolver cannot cover degrades the session when it is applied, and
// NextMode applies it before choosing, so the next checkpoint is Full.
func TestSessionAckUnresolvedForcesFull(t *testing.T) {
	_, roots := sessionFixture(2, nil)
	s := ckpt.NewSession(ckpt.WithInfoResolver(func(uint64) *ckpt.Info { return nil }))
	w := ckpt.NewWriter(ckpt.WithSession(s))
	w.Start(ckpt.Incremental)
	for _, r := range roots {
		if err := w.Checkpoint(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	s.Ack(w.Epoch(), errors.New("dropped"))
	if got := s.NextMode(ckpt.Incremental); got != ckpt.Full {
		t.Fatalf("NextMode(Incremental) after an unresolvable lost epoch = %v, want Full", got)
	}
	if st := s.Stats(); st.Unresolved != len(roots) || st.Remarked != 0 || st.ForcedFull != 1 {
		t.Errorf("stats = %+v, want %d unresolved, none re-marked, 1 forced full", st, len(roots))
	}
}
