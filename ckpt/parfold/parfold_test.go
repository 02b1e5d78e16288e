package parfold_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"ickpt/ckpt"
	"ickpt/ckpt/parfold"
	"ickpt/internal/synth"
	"ickpt/reflectckpt"
	"ickpt/spec"
	"ickpt/stablelog"
	"ickpt/wire"
)

// twin builds two identical synth populations so one can be folded
// sequentially and the other in parallel without the folds interfering
// through the shared modified flags.
func twin(shape synth.Shape) (*synth.Workload, *synth.Workload) {
	return synth.Build(shape), synth.Build(shape)
}

// drain clears every modified flag of w, failing the test on error.
func drain(t *testing.T, w *synth.Workload) {
	t.Helper()
	if err := w.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// seqFold folds the roots in ascending id order with the generic driver into
// a fresh body at the writer's next epoch.
func seqFold(t *testing.T, wr *ckpt.Writer, mode ckpt.Mode, roots []ckpt.Checkpointable) ([]byte, ckpt.Stats) {
	t.Helper()
	wr.Start(mode)
	for _, r := range roots {
		if err := wr.Checkpoint(r); err != nil {
			t.Fatalf("sequential checkpoint: %v", err)
		}
	}
	body, stats, err := wr.Finish()
	if err != nil {
		t.Fatalf("sequential finish: %v", err)
	}
	return body, stats
}

// shuffled returns a copy of roots in a deterministic non-canonical order,
// exercising the folder's canonical re-ordering.
func shuffled(roots []ckpt.Checkpointable, seed int64) []ckpt.Checkpointable {
	out := append([]ckpt.Checkpointable(nil), roots...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) {
		out[i], out[j] = out[j], out[i]
	})
	return out
}

func TestParallelMatchesSequentialSynth(t *testing.T) {
	shape := synth.Shape{Structures: 60, ListLen: 5, Kind: synth.Ints1}
	pat := synth.ModPattern{Percent: 50, ModifiableLists: 3}
	const rounds = 3

	for _, mode := range []ckpt.Mode{ckpt.Full, ckpt.Incremental} {
		for _, workers := range []int{1, 2, 4} {
			for _, shards := range []int{0, 1, 3, 16} {
				name := fmt.Sprintf("%v/w%d/s%d", mode, workers, shards)
				t.Run(name, func(t *testing.T) {
					wa, wb := twin(shape)
					drain(t, wa)
					drain(t, wb)
					rngA := rand.New(rand.NewSource(7))
					rngB := rand.New(rand.NewSource(7))
					wr := ckpt.NewWriter()
					folder := parfold.NewGeneric(
						parfold.WithWorkers(workers), parfold.WithShards(shards))
					for round := 0; round < rounds; round++ {
						wa.Mutate(rngA, pat)
						wb.Mutate(rngB, pat)
						want, wantStats := seqFold(t, wr, mode, wa.Roots())
						got, gotStats, err := folder.Fold(mode, shuffled(wb.Roots(), int64(round)))
						if err != nil {
							t.Fatalf("round %d: parallel fold: %v", round, err)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("round %d: parallel body differs from sequential (%d vs %d bytes)",
								round, len(got), len(want))
						}
						if gotStats != wantStats {
							t.Errorf("round %d: stats = %+v, want %+v", round, gotStats, wantStats)
						}
					}
				})
			}
		}
	}
}

func TestEngineShardFoldsMatchSequential(t *testing.T) {
	shape := synth.Shape{Structures: 40, ListLen: 4, Kind: synth.Ints1}
	mod := synth.ModPattern{Percent: 100, ModifiableLists: 3}
	pat := mod.SpecPattern(shape.Kind)

	plan, err := synth.CompilePlan(shape.Kind, pat, spec.WithMode(ckpt.Incremental))
	if err != nil {
		t.Fatalf("compile plan: %v", err)
	}
	genKey := synth.GenKey(shape.Kind, pat.Name)
	gen, ok := synth.Generated(genKey)
	if !ok {
		t.Fatalf("no generated routine %q", genKey)
	}

	cases := []struct {
		name string
		seq  func(w *synth.Workload, wr *ckpt.Writer) error
		fold parfold.FoldFunc
	}{
		{
			name: "reflect",
			seq: func(w *synth.Workload, wr *ckpt.Writer) error {
				return w.CheckpointReflect(reflectckpt.NewEngine(), wr)
			},
			fold: reflectckpt.NewEngine().Checkpoint,
		},
		{
			name: "plan",
			seq:  func(w *synth.Workload, wr *ckpt.Writer) error { return w.CheckpointPlan(plan, wr) },
			fold: plan.Fold,
		},
		{
			name: "codegen",
			seq:  func(w *synth.Workload, wr *ckpt.Writer) error { return w.CheckpointGenerated(genKey, wr) },
			fold: parfold.FoldEmitter(gen),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wa, wb := twin(shape)
			drain(t, wa)
			drain(t, wb)
			rngA := rand.New(rand.NewSource(3))
			rngB := rand.New(rand.NewSource(3))
			wr := ckpt.NewWriter()
			folder := parfold.New(tc.fold, parfold.WithWorkers(3), parfold.WithShards(5))
			for round := 0; round < 2; round++ {
				wa.Mutate(rngA, mod)
				wb.Mutate(rngB, mod)
				wr.Start(ckpt.Incremental)
				if err := tc.seq(wa, wr); err != nil {
					t.Fatalf("round %d: sequential: %v", round, err)
				}
				want, _, err := wr.Finish()
				if err != nil {
					t.Fatalf("round %d: finish: %v", round, err)
				}
				got, _, err := folder.Fold(ckpt.Incremental, wb.Roots())
				if err != nil {
					t.Fatalf("round %d: parallel: %v", round, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("round %d: parallel %s body differs from sequential", round, tc.name)
				}
			}
		})
	}
}

// TestFoldDeterminism100 pins the determinism regression from the issue: a
// hundred parallel folds of the same quiescent population, across goroutine
// schedules, must produce identical bytes — and the bytes of the sequential
// fold at that.
func TestFoldDeterminism100(t *testing.T) {
	shape := synth.Shape{Structures: 50, ListLen: 3, Kind: synth.Ints1}
	w := synth.Build(shape)
	wr := ckpt.NewWriter()
	want, _ := seqFold(t, wr, ckpt.Full, w.Roots())
	want = append([]byte(nil), want...)

	for i := 0; i < 100; i++ {
		// A folder per run: every body is epoch 1, like the reference.
		folder := parfold.NewGeneric(parfold.WithWorkers(4), parfold.WithShards(7))
		got, _, err := folder.Fold(ckpt.Full, shuffled(w.Roots(), int64(i)))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("run %d: body differs from reference", i)
		}
	}
}

func TestFoldToAsyncWriter(t *testing.T) {
	shape := synth.Shape{Structures: 30, ListLen: 3, Kind: synth.Ints10}
	pat := synth.ModPattern{Percent: 100, ModifiableLists: 2}
	w := synth.Build(shape)

	lg, err := stablelog.Create(filepath.Join(t.TempDir(), "par.log"))
	if err != nil {
		t.Fatalf("create log: %v", err)
	}
	async := stablelog.NewAsyncWriter(lg, stablelog.WithSyncEvery(2))
	folder := parfold.NewGeneric(parfold.WithWorkers(4))

	var want [][]byte
	record := func(mode ckpt.Mode) {
		t.Helper()
		body, _, err := folder.Fold(mode, w.Roots())
		if err != nil {
			t.Fatalf("fold: %v", err)
		}
		want = append(want, append([]byte(nil), body...))
		if err := async.Append(mode, folder.Epoch(), body); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	record(ckpt.Full)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 3; i++ {
		w.Mutate(rng, pat)
		record(ckpt.Incremental)
	}
	// One more through the FoldTo convenience path.
	w.Mutate(rng, pat)
	stats, err := folder.FoldTo(async, ckpt.Incremental, w.Roots())
	if err != nil {
		t.Fatalf("FoldTo: %v", err)
	}
	if stats.Recorded == 0 {
		t.Fatalf("FoldTo recorded nothing")
	}
	if err := async.Close(); err != nil {
		t.Fatalf("close async: %v", err)
	}
	if err := lg.Close(); err != nil {
		t.Fatalf("close log: %v", err)
	}

	lg2, err := stablelog.Open(filepath.Join(lg.Path()))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer lg2.Close()
	segs := lg2.Segments()
	if len(segs) != len(want)+1 {
		t.Fatalf("segments = %d, want %d", len(segs), len(want)+1)
	}
	for i, wantBody := range want {
		got, err := lg2.Read(segs[i].Seq)
		if err != nil {
			t.Fatalf("read segment %d: %v", i, err)
		}
		if !bytes.Equal(got, wantBody) {
			t.Fatalf("segment %d differs from folded body", i)
		}
	}
	rb := ckpt.NewRebuilder(synth.Registry())
	if err := lg2.Recover(rb); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rb.Objects() != w.Objects() {
		t.Fatalf("recovered %d objects, want %d", rb.Objects(), w.Objects())
	}
	if _, err := rb.Build(ckpt.NewDomain()); err != nil {
		t.Fatalf("build: %v", err)
	}
}

// leaf is a minimal checkpointable for error-path tests.
type leaf struct {
	Info ckpt.Info
	V    int64
}

func (l *leaf) CheckpointInfo() *ckpt.Info    { return &l.Info }
func (l *leaf) CheckpointTypeID() ckpt.TypeID { return ckpt.TypeIDOf("parfold.leaf") }
func (l *leaf) Record(e *wire.Encoder)        { e.Varint(l.V) }
func (l *leaf) Fold(w *ckpt.Writer) error     { return nil }

func TestFoldErrorDeterministic(t *testing.T) {
	d := ckpt.NewDomain()
	roots := make([]ckpt.Checkpointable, 40)
	for i := range roots {
		roots[i] = &leaf{Info: ckpt.NewInfo(d), V: int64(i)}
	}
	fold := func(w *ckpt.Writer, root ckpt.Checkpointable) error {
		if id := root.CheckpointInfo().ID(); id%5 == 2 {
			return fmt.Errorf("boom at %d", id)
		}
		return w.Checkpoint(root)
	}
	var first string
	for i := 0; i < 50; i++ {
		folder := parfold.New(fold, parfold.WithWorkers(4), parfold.WithShards(8))
		_, _, err := folder.Fold(ckpt.Full, roots)
		if err == nil {
			t.Fatalf("run %d: fold succeeded, want error", i)
		}
		if i == 0 {
			first = err.Error()
			continue
		}
		if err.Error() != first {
			t.Fatalf("run %d: error %q, want %q (deterministic selection)", i, err, first)
		}
	}
}

func TestEpochsAndEmptyFold(t *testing.T) {
	folder := parfold.NewGeneric(parfold.WithWorkers(2))
	inspect := func(body []byte) ckpt.BodyInfo {
		t.Helper()
		info, err := ckpt.InspectBodyKinds(body, nil)
		if err != nil {
			t.Fatalf("inspect: %v", err)
		}
		return info
	}

	body, stats, err := folder.Fold(ckpt.Full, nil)
	if err != nil {
		t.Fatalf("empty fold: %v", err)
	}
	if info := inspect(body); info.Epoch != 1 || info.Records != 0 || info.Mode != ckpt.Full {
		t.Fatalf("empty fold header = %+v", info)
	}
	if stats.Bytes != len(body) {
		t.Fatalf("stats.Bytes = %d, body = %d", stats.Bytes, len(body))
	}

	body, _, err = folder.Fold(ckpt.Incremental, nil)
	if err != nil {
		t.Fatalf("second fold: %v", err)
	}
	if info := inspect(body); info.Epoch != 2 {
		t.Fatalf("second fold epoch = %d, want 2", info.Epoch)
	}
}

// TestEpochAdvancesPerFold: the epoch advances by exactly one per fold — a
// failed fold consumes its epoch too, so a caller counting takes (a session's
// Ack, the difftest sweeps) stays aligned with the bodies' headers.
func TestEpochAdvancesPerFold(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(4)
			defer runtime.GOMAXPROCS(prev)
			d := ckpt.NewDomain()
			roots := make([]ckpt.Checkpointable, 12)
			for i := range roots {
				roots[i] = &leaf{Info: ckpt.NewInfo(d), V: int64(i)}
			}
			fail := false
			folder := parfold.New(func(w *ckpt.Writer, root ckpt.Checkpointable) error {
				if fail {
					return fmt.Errorf("boom")
				}
				return w.Checkpoint(root)
			}, parfold.WithWorkers(workers))
			for i, failing := range []bool{false, true, true, false} {
				fail = failing
				body, _, err := folder.Fold(ckpt.Incremental, roots)
				if (err != nil) != failing {
					t.Fatalf("fold %d: err = %v, failing = %v", i, err, failing)
				}
				if want := uint64(i + 1); folder.Epoch() != want {
					t.Fatalf("fold %d: Epoch() = %d, want %d", i, folder.Epoch(), want)
				}
				if failing {
					continue
				}
				info, err := ckpt.InspectBodyKinds(body, nil)
				if err != nil {
					t.Fatalf("fold %d: inspect: %v", i, err)
				}
				if info.Epoch != folder.Epoch() {
					t.Fatalf("fold %d: body epoch %d, folder epoch %d", i, info.Epoch, folder.Epoch())
				}
			}
		})
	}
}

// TestNoClaimsAfterFailure pins the early-stop regression: once a fold has
// failed, the epoch is doomed and no further roots may be folded. A single
// worker makes the schedule deterministic — and runs the inline sequential
// path, which folds roots in canonical ascending-id order: the failing call
// on the lowest id comes first, and nothing after it may fold (an epoch
// whose body will be discarded must not burn CPU on the remaining ~39
// roots).
func TestNoClaimsAfterFailure(t *testing.T) {
	const nRoots, nShards = 40, 8
	d := ckpt.NewDomain()
	roots := make([]ckpt.Checkpointable, nRoots)
	lowest := uint64(1<<63 - 1)
	for i := range roots {
		l := &leaf{Info: ckpt.NewInfo(d), V: int64(i)}
		roots[i] = l
		if id := l.Info.ID(); id < lowest {
			lowest = id
		}
	}

	var calls atomic.Int32
	fold := func(w *ckpt.Writer, root ckpt.Checkpointable) error {
		calls.Add(1)
		if root.CheckpointInfo().ID() == lowest {
			return fmt.Errorf("boom at %d", lowest)
		}
		return w.Checkpoint(root)
	}
	folder := parfold.New(fold, parfold.WithWorkers(1), parfold.WithShards(nShards))
	if _, _, err := folder.Fold(ckpt.Full, roots); err == nil {
		t.Fatal("fold succeeded, want error")
	}
	// The failing call on the lowest id is the first fold of the canonical
	// sequence; nothing after that. Before the fix the worker kept going
	// through all eight shards.
	want := int32(1)
	if got := calls.Load(); got != want {
		t.Fatalf("fold calls after failure = %d, want %d (claiming must stop)", got, want)
	}
}

// TestFoldSessionAbortRecapture: with a session attached, an aborted epoch's
// re-marked flags make a retake of the same epoch byte-identical to the
// fold whose body was lost.
func TestFoldSessionAbortRecapture(t *testing.T) {
	shape := synth.Shape{Structures: 30, ListLen: 4, Kind: synth.Ints1}
	w := synth.Build(shape)

	s := ckpt.NewSession()
	// A folder per take, both under session s: each folds epoch 1.
	newFolder := func() *parfold.Folder {
		return parfold.NewGeneric(parfold.WithWorkers(4), parfold.WithSession(s))
	}
	first, _, err := newFolder().Fold(ckpt.Incremental, w.Roots())
	if err != nil {
		t.Fatalf("first fold: %v", err)
	}
	first = append([]byte(nil), first...)
	if s.Pending() != 1 {
		t.Fatalf("pending = %d after fold, want 1", s.Pending())
	}
	// The body is lost downstream; abort re-marks every cleared flag ...
	if got := s.Abort(1); got == 0 {
		t.Fatal("abort re-marked nothing")
	}
	// ... so retaking the same epoch recaptures exactly the lost bytes.
	second, _, err := newFolder().Fold(ckpt.Incremental, w.Roots())
	if err != nil {
		t.Fatalf("retake: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("retake after abort differs from lost body (%d vs %d bytes)", len(second), len(first))
	}
	s.Commit(1)
	if st := s.Stats(); st.Aborts != 1 || st.Commits != 1 {
		t.Fatalf("session stats = %+v, want 1 abort + 1 commit", st)
	}
}

// TestFoldFailureRemarks: a failed parallel fold re-marks every flag its
// workers cleared — including shards that folded cleanly — with and without
// a session attached.
func TestFoldFailureRemarks(t *testing.T) {
	for _, withSession := range []bool{false, true} {
		t.Run(fmt.Sprintf("session=%v", withSession), func(t *testing.T) {
			d := ckpt.NewDomain()
			roots := make([]ckpt.Checkpointable, 40)
			var failID uint64
			for i := range roots {
				l := &leaf{Info: ckpt.NewInfo(d), V: int64(i)}
				roots[i] = l
				failID = l.Info.ID() // fail on the highest id: most flags cleared first
			}
			fold := func(w *ckpt.Writer, root ckpt.Checkpointable) error {
				if root.CheckpointInfo().ID() == failID {
					return fmt.Errorf("boom at %d", failID)
				}
				return w.Checkpoint(root)
			}
			s := ckpt.NewSession()
			opts := []parfold.Option{parfold.WithWorkers(4), parfold.WithShards(8)}
			if withSession {
				opts = append(opts, parfold.WithSession(s))
			}
			folder := parfold.New(fold, opts...)
			if _, _, err := folder.Fold(ckpt.Incremental, roots); err == nil {
				t.Fatal("fold succeeded, want error")
			}
			for _, r := range roots {
				if !r.CheckpointInfo().Modified() {
					t.Fatalf("id %d lost its modified flag in the failed epoch", r.CheckpointInfo().ID())
				}
			}
			if withSession {
				if st := s.Stats(); st.Aborts != 1 || st.Remarked == 0 {
					t.Fatalf("session stats = %+v, want 1 abort with re-marks", st)
				}
			}
		})
	}
}

// errSink hands out encoders but fails every Submit.
type errSink struct{ err error }

func (errSink) Reserve() *wire.Encoder                          { return wire.NewEncoder(0) }
func (s errSink) Submit(ckpt.Mode, uint64, *wire.Encoder) error { return s.err }
func (errSink) Recycle(*wire.Encoder)                           {}

// TestFoldToSinkFailureRemarks: a sink whose Submit rejects the merged body
// aborts the epoch — flags re-marked through the session when one is attached,
// directly otherwise.
func TestFoldToSinkFailureRemarks(t *testing.T) {
	for _, withSession := range []bool{false, true} {
		t.Run(fmt.Sprintf("session=%v", withSession), func(t *testing.T) {
			d := ckpt.NewDomain()
			roots := make([]ckpt.Checkpointable, 20)
			for i := range roots {
				roots[i] = &leaf{Info: ckpt.NewInfo(d), V: int64(i)}
			}
			s := ckpt.NewSession()
			opts := []parfold.Option{parfold.WithWorkers(2)}
			if withSession {
				opts = append(opts, parfold.WithSession(s))
			}
			folder := parfold.NewGeneric(opts...)
			boom := fmt.Errorf("sink on fire")
			if _, err := folder.FoldTo(errSink{boom}, ckpt.Incremental, roots); err != boom {
				t.Fatalf("FoldTo = %v, want sink error", err)
			}
			for _, r := range roots {
				if !r.CheckpointInfo().Modified() {
					t.Fatalf("id %d lost its modified flag to the failed sink", r.CheckpointInfo().ID())
				}
			}
		})
	}
}
