package parfold_test

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"ickpt/ckpt"
	"ickpt/ckpt/parfold"
	"ickpt/internal/synth"
	"ickpt/stablelog"
	"ickpt/wire"
)

// appendOnly hides an AsyncWriter's Reserve/Submit methods so FoldTo takes
// the copying Append path — the byte-identity reference for the zero-copy
// handoff.
type appendOnly struct {
	aw *stablelog.AsyncWriter
}

func (s appendOnly) Append(mode ckpt.Mode, epoch uint64, body []byte) error {
	return s.aw.Append(mode, epoch, body)
}

// recordingSink wraps an AsyncWriter and records the Reserve/Submit/Recycle
// traffic FoldTo generates, so tests can assert the ownership contract from
// outside: every Reserve is balanced by exactly one Submit or Recycle.
type recordingSink struct {
	*stablelog.AsyncWriter
	reserved  []*wire.Encoder
	submitted []*wire.Encoder
	recycled  []*wire.Encoder
}

func (s *recordingSink) Reserve() *wire.Encoder {
	enc := s.AsyncWriter.Reserve()
	s.reserved = append(s.reserved, enc)
	return enc
}

func (s *recordingSink) Submit(mode ckpt.Mode, epoch uint64, enc *wire.Encoder) error {
	s.submitted = append(s.submitted, enc)
	return s.AsyncWriter.Submit(mode, epoch, enc)
}

func (s *recordingSink) Recycle(enc *wire.Encoder) {
	s.recycled = append(s.recycled, enc)
	s.AsyncWriter.Recycle(enc)
}

func newTestAsync(t *testing.T, name string) (*stablelog.Log, *stablelog.AsyncWriter) {
	t.Helper()
	lg, err := stablelog.Create(filepath.Join(t.TempDir(), name))
	if err != nil {
		t.Fatalf("create log: %v", err)
	}
	t.Cleanup(func() { lg.Close() })
	return lg, stablelog.NewAsyncWriter(lg, stablelog.WithSyncEvery(1))
}

// TestFoldToZeroCopyByteIdentical: FoldTo into a ReserveSink (the zero-copy
// handoff) logs segments byte-identical to FoldTo through the copying Append
// path, on both the single-worker inline encode and the multi-worker merge
// into the reserved buffer.
func TestFoldToZeroCopyByteIdentical(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(map[int]string{1: "inline", 4: "sharded"}[workers], func(t *testing.T) {
			if workers > 1 {
				prev := runtime.GOMAXPROCS(workers)
				defer runtime.GOMAXPROCS(prev)
			}
			shape := synth.Shape{Structures: 50, ListLen: 6, Kind: synth.Ints10}
			wa, wb := twin(shape)
			drain(t, wa)
			drain(t, wb)

			lgA, awA := newTestAsync(t, "copy.log")
			lgB, awB := newTestAsync(t, "zc.log")

			foldA := parfold.NewGeneric(parfold.WithWorkers(workers))
			foldB := parfold.NewGeneric(parfold.WithWorkers(workers))

			pat := synth.ModPattern{Percent: 40, ModifiableLists: 2}
			rngA := rand.New(rand.NewSource(11))
			rngB := rand.New(rand.NewSource(11))
			for round := 0; round < 4; round++ {
				mode := ckpt.Incremental
				if round == 0 {
					mode = ckpt.Full
				}
				if _, err := foldA.FoldTo(appendOnly{awA}, mode, wa.Roots()); err != nil {
					t.Fatalf("append-path fold: %v", err)
				}
				if _, err := foldB.FoldTo(awB, mode, wb.Roots()); err != nil {
					t.Fatalf("zero-copy fold: %v", err)
				}
				wa.Mutate(rngA, pat)
				wb.Mutate(rngB, pat)
			}
			if err := awA.Close(); err != nil {
				t.Fatalf("close A: %v", err)
			}
			if err := awB.Close(); err != nil {
				t.Fatalf("close B: %v", err)
			}

			segsA, segsB := lgA.Segments(), lgB.Segments()
			if len(segsA) != len(segsB) || len(segsA) == 0 {
				t.Fatalf("segment counts differ: append-path %d, zero-copy %d", len(segsA), len(segsB))
			}
			for i := range segsA {
				ba, err := lgA.Read(segsA[i].Seq)
				if err != nil {
					t.Fatal(err)
				}
				bb, err := lgB.Read(segsB[i].Seq)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(ba, bb) {
					t.Fatalf("segment %d: zero-copy body differs from append-path body", i)
				}
			}
		})
	}
}

// TestFoldToAbortRecyclesReservation: a fold that fails after FoldTo has
// reserved its sink buffer must hand the reservation back via Recycle —
// never Submit — and repeated failures must keep reusing the same bounded
// free list instead of leaking a buffer per aborted epoch. Covers both the
// inline path and the multi-worker shard-failure path.
func TestFoldToAbortRecyclesReservation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(map[int]string{1: "inline", 4: "sharded"}[workers], func(t *testing.T) {
			if workers > 1 {
				prev := runtime.GOMAXPROCS(workers)
				defer runtime.GOMAXPROCS(prev)
			}
			shape := synth.Shape{Structures: 40, ListLen: 4, Kind: synth.Ints1}
			w := synth.Build(shape)
			drain(t, w)

			boom := errors.New("boom")
			fold := func(*ckpt.Writer, ckpt.Checkpointable) error { return boom }
			_, aw := newTestAsync(t, "abort.log")
			defer aw.Close()
			sink := &recordingSink{AsyncWriter: aw}
			folder := parfold.New(fold, parfold.WithWorkers(workers))

			const attempts = 20
			for i := 0; i < attempts; i++ {
				if _, err := folder.FoldTo(sink, ckpt.Full, w.Roots()); !errors.Is(err, boom) {
					t.Fatalf("fold %d error = %v, want boom", i, err)
				}
			}
			if len(sink.reserved) != attempts {
				t.Fatalf("reserved %d buffers over %d folds, want one each", len(sink.reserved), attempts)
			}
			if len(sink.submitted) != 0 {
				t.Fatalf("%d aborted folds submitted bodies", len(sink.submitted))
			}
			if len(sink.recycled) != attempts {
				t.Fatalf("recycled %d of %d aborted reservations (buffers leaked)", len(sink.recycled), attempts)
			}
			for i := range sink.recycled {
				if sink.recycled[i] != sink.reserved[i] {
					t.Fatalf("fold %d recycled a different encoder than it reserved", i)
				}
			}
			// The bounded free list absorbs every abort: after the first
			// recycle, each Reserve reuses a free-listed buffer.
			distinct := map[*wire.Encoder]bool{}
			for _, enc := range sink.reserved {
				distinct[enc] = true
			}
			if len(distinct) > 2 {
				t.Fatalf("%d aborted folds used %d distinct buffers, want <= 2 (free list not reused)", attempts, len(distinct))
			}
		})
	}
}

// TestWorkers1RunsInline pins the satellite contract: a workers=1 folder
// spawns no goroutines regardless of GOMAXPROCS (the old clamp only covered
// GOMAXPROCS=1) and its folds are byte-identical to the sequential writer.
func TestWorkers1RunsInline(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	shape := synth.Shape{Structures: 30, ListLen: 5, Kind: synth.Ints10}
	wa, wb := twin(shape)
	drain(t, wa)
	drain(t, wb)

	folder := parfold.NewGeneric(parfold.WithWorkers(1))
	wr := ckpt.NewWriter()
	for round := 0; round < 3; round++ {
		body, _, err := folder.Fold(ckpt.Full, wa.Roots())
		if err != nil {
			t.Fatalf("inline fold: %v", err)
		}
		want, _ := seqFold(t, wr, ckpt.Full, wb.Roots())
		if !bytes.Equal(body, want) {
			t.Fatalf("round %d: inline workers=1 body differs from sequential", round)
		}
	}
	if got := folder.Spawned(); got != 0 {
		t.Fatalf("workers=1 folds spawned %d goroutines, want 0", got)
	}
}

// TestWorkers1SpeedupFloor is the benchmark-backed regression test for the
// workers=1 inline path: folding through a workers=1 Folder must cost no
// more than ~2% over the plain sequential writer (the old path paid shard
// bookkeeping, a merge copy, and a per-epoch sort — 0.69× at worst). The
// measurement takes the min of many interleaved samples and retries to damp
// scheduler noise before failing.
func TestWorkers1SpeedupFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	shape := synth.Shape{Structures: 400, ListLen: 8, Kind: synth.Ints10}
	wa, wb := twin(shape)
	drain(t, wa)
	drain(t, wb)
	rootsSeq, rootsPar := wb.Roots(), wa.Roots()

	wr := ckpt.NewWriter(ckpt.WithEncoder(wire.GetEncoder()))
	folder := parfold.NewGeneric(parfold.WithWorkers(1))

	seqOnce := func() {
		wr.Start(ckpt.Full)
		for _, r := range rootsSeq {
			if err := wr.Checkpoint(r); err != nil {
				t.Fatalf("sequential: %v", err)
			}
		}
		if _, _, err := wr.Finish(); err != nil {
			t.Fatalf("sequential finish: %v", err)
		}
	}
	parOnce := func() {
		if _, _, err := folder.Fold(ckpt.Full, rootsPar); err != nil {
			t.Fatalf("inline fold: %v", err)
		}
	}
	// Warm caches and grow every buffer to steady state.
	for i := 0; i < 3; i++ {
		seqOnce()
		parOnce()
	}

	const reps = 10
	sample := func(fn func()) time.Duration {
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		return time.Since(start)
	}

	const floor = 0.98
	var speedup float64
	for attempt := 0; attempt < 5; attempt++ {
		minSeq, minPar := time.Duration(1<<62), time.Duration(1<<62)
		for s := 0; s < 6; s++ {
			if d := sample(seqOnce); d < minSeq {
				minSeq = d
			}
			if d := sample(parOnce); d < minPar {
				minPar = d
			}
		}
		speedup = float64(minSeq) / float64(minPar)
		if speedup >= floor {
			break
		}
	}
	if speedup < floor {
		t.Fatalf("workers=1 speedup vs sequential = %.3f, want >= %.2f (inline path regressed)", speedup, floor)
	}
	if got := folder.Spawned(); got != 0 {
		t.Fatalf("workers=1 timing folds spawned %d goroutines, want 0", got)
	}
}
