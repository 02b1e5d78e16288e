package parfold_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"ickpt/ckpt"
	"ickpt/ckpt/parfold"
	"ickpt/internal/synth"
	"ickpt/reflectckpt"
	"ickpt/wire"
)

// watched builds and drains a synth population and attaches a watched
// tracker to it.
func watched(t *testing.T, shape synth.Shape) (*synth.Workload, *ckpt.Tracker) {
	t.Helper()
	w := synth.Build(shape)
	drain(t, w)
	tr := ckpt.NewTracker()
	w.Domain.AttachTracker(tr)
	if err := tr.Watch(w.Roots()...); err != nil {
		t.Fatal(err)
	}
	return w, tr
}

// seqDirty takes a sequential dirty checkpoint at the writer's next epoch.
func seqDirty(t *testing.T, wr *ckpt.Writer, tr *ckpt.Tracker) ([]byte, ckpt.Stats) {
	t.Helper()
	wr.Start(ckpt.Incremental)
	if err := wr.CheckpointDirty(tr, ckpt.EmitObject); err != nil {
		t.Fatalf("sequential dirty checkpoint: %v", err)
	}
	body, stats, err := wr.Finish()
	if err != nil {
		t.Fatalf("sequential dirty finish: %v", err)
	}
	return body, stats
}

// TestFoldDirtyMatchesSequential: the parallel dirty fold's merged body is
// byte-identical to ckpt.Writer.CheckpointDirty over a twin population, for
// every worker/shard geometry.
func TestFoldDirtyMatchesSequential(t *testing.T) {
	shape := synth.Shape{Structures: 50, ListLen: 6, Kind: synth.Ints1}
	pat := synth.ModPattern{Percent: 30, ModifiableLists: 3}
	const rounds = 3

	for _, workers := range []int{1, 2, 4} {
		for _, shards := range []int{0, 1, 3, 16} {
			t.Run(fmt.Sprintf("w%d/s%d", workers, shards), func(t *testing.T) {
				wa, tra := watched(t, shape)
				wb, trb := watched(t, shape)
				rngA := rand.New(rand.NewSource(11))
				rngB := rand.New(rand.NewSource(11))
				wr := ckpt.NewWriter()
				folder := parfold.NewGeneric(
					parfold.WithWorkers(workers), parfold.WithShards(shards))
				defer folder.Release()
				for round := 0; round < rounds; round++ {
					wa.Mutate(rngA, pat)
					wb.Mutate(rngB, pat)
					want, wantStats := seqDirty(t, wr, tra)
					got, gotStats, err := folder.FoldDirty(trb, ckpt.EmitObject)
					if err != nil {
						t.Fatalf("round %d: parallel dirty fold: %v", round, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("round %d: parallel dirty body differs from sequential (%d vs %d bytes)",
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

// TestFoldDirtySingleWorkerInline: with one effective worker the dirty fold
// runs inline on the caller's goroutine — no pool is spun up.
func TestFoldDirtySingleWorkerInline(t *testing.T) {
	w, tr := watched(t, synth.Shape{Structures: 10, ListLen: 4, Kind: synth.Ints1})
	w.MutateEvery(0.5)
	folder := parfold.NewGeneric(parfold.WithWorkers(1), parfold.WithShards(8))
	defer folder.Release()
	if _, _, err := folder.FoldDirty(tr, ckpt.EmitObject); err != nil {
		t.Fatal(err)
	}
	if got := folder.Spawned(); got != 0 {
		t.Fatalf("single-worker dirty fold spawned %d goroutines, want 0", got)
	}
}

// TestFoldSingleWorkerInline: the traversal fold degrades identically — one
// effective worker (explicit, or via shard clamp) means no goroutines.
func TestFoldSingleWorkerInline(t *testing.T) {
	cases := []struct {
		name string
		opts []parfold.Option
	}{
		{"workers1", []parfold.Option{parfold.WithWorkers(1)}},
		{"shardclamp", []parfold.Option{parfold.WithWorkers(8), parfold.WithShards(1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := synth.Build(synth.Shape{Structures: 10, ListLen: 4, Kind: synth.Ints1})
			folder := parfold.NewGeneric(tc.opts...)
			defer folder.Release()
			if _, _, err := folder.Fold(ckpt.Full, w.Roots()); err != nil {
				t.Fatal(err)
			}
			if got := folder.Spawned(); got != 0 {
				t.Fatalf("%s fold spawned %d goroutines, want 0", tc.name, got)
			}
		})
	}
}

// TestFoldGOMAXPROCS1Inline: on a single-P process the folder degrades to the
// inline path regardless of the configured worker count.
func TestFoldGOMAXPROCS1Inline(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	w, tr := watched(t, synth.Shape{Structures: 10, ListLen: 4, Kind: synth.Ints1})
	w.MutateEvery(0.5)
	folder := parfold.NewGeneric(parfold.WithWorkers(8))
	defer folder.Release()
	if _, _, err := folder.Fold(ckpt.Full, w.Roots()); err != nil {
		t.Fatal(err)
	}
	w.MutateEvery(0.5)
	if _, _, err := folder.FoldDirty(tr, ckpt.EmitObject); err != nil {
		t.Fatal(err)
	}
	if got := folder.Spawned(); got != 0 {
		t.Fatalf("GOMAXPROCS=1 folds spawned %d goroutines, want 0", got)
	}
}

// TestFoldDirtyFailureRequeues: a failed parallel dirty fold re-enqueues the
// full dirty set (un-emitted tail via Requeue, emitted prefix via the abort's
// re-mark), so the session-driven retake recovers everything.
func TestFoldDirtyFailureRequeues(t *testing.T) {
	shape := synth.Shape{Structures: 20, ListLen: 4, Kind: synth.Ints1}
	w, tr := watched(t, shape)
	s := ckpt.NewSession()
	dirtied := w.MutateEvery(0.5)
	if dirtied == 0 {
		t.Fatal("fixture dirtied nothing")
	}
	boom := errors.New("boom")
	n := 0
	failing := func(em *ckpt.Emitter, o ckpt.Checkpointable) error {
		if n == dirtied/2 {
			return boom
		}
		n++
		return ckpt.EmitObject(em, o)
	}
	folder := parfold.NewGeneric(
		parfold.WithWorkers(1), parfold.WithSession(s)) // 1 worker: deterministic failure point
	defer folder.Release()
	if _, _, err := folder.FoldDirty(tr, failing); !errors.Is(err, boom) {
		t.Fatalf("FoldDirty = %v, want boom", err)
	}
	if got := tr.Dirty(); got != dirtied {
		t.Fatalf("Dirty() = %d after failed fold, want %d re-enqueued", got, dirtied)
	}
	// The retake matches a sequential dirty fold over a twin with the same
	// mutation at the same epoch: the failed fold consumed epoch 1, so the
	// twin writer burns an empty one.
	twinW, twinTr := watched(t, shape)
	twinW.MutateEvery(0.5)
	wr := ckpt.NewWriter()
	seqFold(t, wr, ckpt.Incremental, nil)
	want, _ := seqDirty(t, wr, twinTr)
	got, _, err := folder.FoldDirty(tr, ckpt.EmitObject)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("retake body differs from sequential reference (%d vs %d bytes)", len(got), len(want))
	}
}

// tagged is a leaf checkpointed through struct tags. The type parameter is
// unused on purpose: every instantiation is a distinct reflect.Type, so one
// population exercises as many reflectckpt schema-cache keys as it has
// instantiations.
type tagged[T any] struct {
	Info ckpt.Info
	V    int64 `ckpt:"field"`
}

func (o *tagged[T]) CheckpointInfo() *ckpt.Info    { return &o.Info }
func (o *tagged[T]) CheckpointTypeID() ckpt.TypeID { return ckpt.TypeIDOf("parfold_test.tagged") }
func (o *tagged[T]) Record(e *wire.Encoder)        { e.Varint(o.V) }
func (o *tagged[T]) Fold(*ckpt.Writer) error       { return nil }

// taggedPopulation builds n fresh (modified) leaves cycling through six
// instantiations of tagged, watched by a new tracker.
func taggedPopulation(t *testing.T, n int) ([]ckpt.Checkpointable, *ckpt.Tracker) {
	t.Helper()
	d := ckpt.NewDomain()
	objs := make([]ckpt.Checkpointable, n)
	for i := range objs {
		info, v := ckpt.NewInfo(d), int64(i)
		switch i % 6 {
		case 0:
			objs[i] = &tagged[int8]{Info: info, V: v}
		case 1:
			objs[i] = &tagged[int16]{Info: info, V: v}
		case 2:
			objs[i] = &tagged[int32]{Info: info, V: v}
		case 3:
			objs[i] = &tagged[int64]{Info: info, V: v}
		case 4:
			objs[i] = &tagged[string]{Info: info, V: v}
		case 5:
			objs[i] = &tagged[bool]{Info: info, V: v}
		}
	}
	tr := ckpt.NewTracker()
	if err := tr.Watch(objs...); err != nil {
		t.Fatal(err)
	}
	return objs, tr
}

// TestFoldDirtySharedReflectEngine: FoldDirty hands one emit function to all
// of its workers, so a reflection engine's schema cache is hit from every
// fold goroutine at once — cold, on several types. The engine must tolerate
// that (run under -race: make race-tenant), and the merged body must still
// match the sequential dirty fold.
func TestFoldDirtySharedReflectEngine(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	const n = 96
	for round := 0; round < 20; round++ {
		wr := ckpt.NewWriter()
		wr.Start(ckpt.Incremental)
		_, tr := taggedPopulation(t, n)
		if err := wr.CheckpointDirty(tr, reflectckpt.NewEngine().EmitOne); err != nil {
			t.Fatal(err)
		}
		want, _, err := wr.Finish()
		if err != nil {
			t.Fatal(err)
		}

		folder := parfold.NewGeneric(parfold.WithWorkers(4))
		_, tr = taggedPopulation(t, n)
		got, stats, err := folder.FoldDirty(tr, reflectckpt.NewEngine().EmitOne)
		if err != nil {
			t.Fatal(err)
		}
		if folder.Spawned() == 0 {
			t.Fatal("fold ran inline: the shared engine was never raced")
		}
		if stats.Recorded != n {
			t.Fatalf("recorded %d objects, want %d", stats.Recorded, n)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: parallel reflect dirty body differs from sequential", round)
		}
		folder.Release()
	}
}

// TestFoldSharedReflectEngine is the traversal twin: parfold.New hands one
// FoldFunc to all of its workers, so one reflectckpt.Engine's Checkpoint is
// called — cold, on six types — from every fold goroutine at once (run under
// -race), and the merged body must match the sequential loop over the same
// engine method.
func TestFoldSharedReflectEngine(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	const n = 96
	for round := 0; round < 20; round++ {
		roots, _ := taggedPopulation(t, n)
		wr := ckpt.NewWriter()
		wr.Start(ckpt.Incremental)
		seq := reflectckpt.NewEngine()
		for _, r := range roots {
			if err := seq.Checkpoint(wr, r); err != nil {
				t.Fatal(err)
			}
		}
		want, wantStats, err := wr.Finish()
		if err != nil {
			t.Fatal(err)
		}

		roots, _ = taggedPopulation(t, n)
		folder := parfold.New(reflectckpt.NewEngine().Checkpoint, parfold.WithWorkers(4))
		got, stats, err := folder.Fold(ckpt.Incremental, roots)
		if err != nil {
			t.Fatal(err)
		}
		if folder.Spawned() == 0 {
			t.Fatal("fold ran inline: the shared engine was never raced")
		}
		if stats != wantStats || stats.Recorded != n {
			t.Fatalf("stats = %+v, sequential %+v, want %d recorded", stats, wantStats, n)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: parallel reflect body differs from sequential", round)
		}
		folder.Release()
	}
}
