package parfold_test

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"ickpt/ckpt"
	"ickpt/ckpt/parfold"
	"ickpt/internal/synth"
	"ickpt/stablelog"
	"ickpt/wire"
)

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

// TestFoldToZeroCopyByteIdentical: FoldTo (the zero-copy handoff into a
// sink's reserved encoder) logs segments byte-identical to the bodies Fold
// returns, on both the single-worker inline encode and the multi-worker
// merge into the reserved buffer.
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

			lgB, awB := newTestAsync(t, "zc.log")

			foldA := parfold.NewGeneric(parfold.WithWorkers(workers))
			foldB := parfold.NewGeneric(parfold.WithWorkers(workers))

			pat := synth.ModPattern{Percent: 40, ModifiableLists: 2}
			rngA := rand.New(rand.NewSource(11))
			rngB := rand.New(rand.NewSource(11))
			var want [][]byte
			for round := 0; round < 4; round++ {
				mode := ckpt.Incremental
				if round == 0 {
					mode = ckpt.Full
				}
				body, _, err := foldA.Fold(mode, wa.Roots())
				if err != nil {
					t.Fatalf("fold: %v", err)
				}
				want = append(want, bytes.Clone(body))
				if _, err := foldB.FoldTo(awB, mode, wb.Roots()); err != nil {
					t.Fatalf("zero-copy fold: %v", err)
				}
				wa.Mutate(rngA, pat)
				wb.Mutate(rngB, pat)
			}
			if err := awB.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			segs := lgB.Segments()
			if len(segs) != len(want) {
				t.Fatalf("zero-copy log has %d segments, want %d", len(segs), len(want))
			}
			for i := range segs {
				got, err := lgB.Read(segs[i].Seq)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want[i]) {
					t.Fatalf("segment %d: zero-copy body differs from the Fold body", i)
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

// TestWorkers1SpeedupFloor is the regression test for the workers=1 inline
// path: folding through a workers=1 Folder must cost what the plain
// sequential writer costs (the old path paid shard bookkeeping, a merge copy
// and a per-epoch sort — 0.69× at worst). What that means is counted, not
// timed: no goroutine is spawned, the inline fold allocates no more than the
// sequential writer does, and the body is the sequential writer's, byte for
// byte — so there is no extra copy or table for the time to go to.
func TestWorkers1SpeedupFloor(t *testing.T) {
	shape := synth.Shape{Structures: 400, ListLen: 8, Kind: synth.Ints10}
	wa, wb := twin(shape)
	drain(t, wa)
	drain(t, wb)
	rootsSeq, rootsPar := wb.Roots(), wa.Roots()

	wr := ckpt.NewWriter()
	wr.SwapEncoder(wire.GetEncoder())
	folder := parfold.NewGeneric(parfold.WithWorkers(1))

	var seqBody, parBody []byte
	seqOnce := func() {
		seqBody, _ = seqFold(t, wr, ckpt.Full, rootsSeq)
	}
	parOnce := func() {
		body, _, err := folder.Fold(ckpt.Full, rootsPar)
		if err != nil {
			t.Fatalf("inline fold: %v", err)
		}
		parBody = body
	}
	// Grow every buffer to steady state.
	for i := 0; i < 3; i++ {
		seqOnce()
		parOnce()
	}
	if !bytes.Equal(parBody, seqBody) {
		t.Fatalf("inline workers=1 body (%d bytes) differs from the sequential writer's (%d bytes)", len(parBody), len(seqBody))
	}
	seqAllocs := testing.AllocsPerRun(10, seqOnce)
	parAllocs := testing.AllocsPerRun(10, parOnce)
	if parAllocs > seqAllocs {
		t.Fatalf("inline workers=1 fold allocates %.0f objects per epoch, the sequential writer %.0f (inline path regressed)", parAllocs, seqAllocs)
	}
	if got := folder.Spawned(); got != 0 {
		t.Fatalf("workers=1 folds spawned %d goroutines, want 0", got)
	}
}
