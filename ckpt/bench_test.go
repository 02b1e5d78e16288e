package ckpt_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ickpt/ckpt"
	"ickpt/internal/synth"
)

// benchChain builds a box with a 64-element list.
func benchChain(b *testing.B) (*ckpt.Writer, *box) {
	b.Helper()
	d := ckpt.NewDomain()
	root := buildChain(d, 64)
	return ckpt.NewWriter(), root
}

// BenchmarkWriterFull measures the generic driver recording everything.
func BenchmarkWriterFull(b *testing.B) {
	w, root := benchChain(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Start(ckpt.Full)
		if err := w.Checkpoint(root); err != nil {
			b.Fatal(err)
		}
		if _, _, err := w.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriterQuiescent measures pure traversal: incremental mode with
// no modified objects — the cost specialization removes.
func BenchmarkWriterQuiescent(b *testing.B) {
	w, root := benchChain(b)
	w.Start(ckpt.Incremental)
	if err := w.Checkpoint(root); err != nil {
		b.Fatal(err)
	}
	if _, _, err := w.Finish(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Start(ckpt.Incremental)
		if err := w.Checkpoint(root); err != nil {
			b.Fatal(err)
		}
		if _, _, err := w.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriterOneDirty measures an incremental checkpoint with a single
// modified object in the chain.
func BenchmarkWriterOneDirty(b *testing.B) {
	w, root := benchChain(b)
	w.Start(ckpt.Incremental)
	if err := w.Checkpoint(root); err != nil {
		b.Fatal(err)
	}
	if _, _, err := w.Finish(); err != nil {
		b.Fatal(err)
	}
	mid := root.head
	for i := 0; i < 32; i++ {
		mid = mid.next
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mid.x++
		mid.info.SetModified()
		w.Start(ckpt.Incremental)
		if err := w.Checkpoint(root); err != nil {
			b.Fatal(err)
		}
		if _, _, err := w.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRebuild measures reconstructing 65 objects from a body.
func BenchmarkRebuild(b *testing.B) {
	d := ckpt.NewDomain()
	root := buildChain(d, 64)
	w := ckpt.NewWriter()
	w.Start(ckpt.Full)
	if err := w.Checkpoint(root); err != nil {
		b.Fatal(err)
	}
	body, _, err := w.Finish()
	if err != nil {
		b.Fatal(err)
	}
	bodyCopy := append([]byte(nil), body...)
	reg := testRegistryQuick()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb := ckpt.NewRebuilder(reg)
		if err := rb.Apply(bodyCopy); err != nil {
			b.Fatal(err)
		}
		if _, err := rb.Build(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// sparseChain is the replay chain of the synth-sparse benchmark workload:
// one Full body of 26 records per structure (synth.Shape{structures, 5,
// Ints10}) followed by 231 incrementals of 200 marked elements each. At the
// workload's size, 4000 structures, the Full holds 104 000 records.
func sparseChain(tb testing.TB, structures int) [][]byte {
	tb.Helper()
	w, elems := sparseGraph(structures)
	rng := rand.New(rand.NewSource(11))
	wr := ckpt.NewWriter()
	bodies := make([][]byte, 0, 232)
	for epoch := 0; epoch < 232; epoch++ {
		mode := ckpt.Incremental
		if epoch == 0 {
			mode = ckpt.Full
		}
		wr.Start(mode)
		if err := w.CheckpointGeneric(wr); err != nil {
			tb.Fatal(err)
		}
		body, _, err := wr.Finish()
		if err != nil {
			tb.Fatal(err)
		}
		bodies = append(bodies, append([]byte(nil), body...))
		for i := 0; i < 200; i++ {
			e := elems[rng.Intn(len(elems))]
			e.V0++
			e.Info.Mark()
		}
	}
	return bodies
}

// sparseGraph builds the synth-sparse population and lists its elements, the
// objects the workload marks.
func sparseGraph(structures int) (*synth.Workload, []*synth.Element10) {
	w := synth.Build(synth.Shape{Structures: structures, ListLen: 5, Kind: synth.Ints10})
	var elems []*synth.Element10
	for _, r := range w.Roots() {
		s := r.(*synth.Structure10)
		for li := 0; li < synth.NumLists; li++ {
			for e := s.List(li); e != nil; e = e.Next {
				elems = append(elems, e)
			}
		}
	}
	return w, elems
}

// BenchmarkDirtyFoldSparse measures the dirty drain at synth-sparse size:
// per op, 200 seeded element marks, then one CheckpointDirty through a
// watched tracker over the 104 000-object graph — the epoch the workload
// runs, where WriterOneDirty covers a 65-object chain.
func BenchmarkDirtyFoldSparse(b *testing.B) {
	w, elems := sparseGraph(4000)
	wr, tr := watchedSparse(b, w)
	rng := rand.New(rand.NewSource(11))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for range 200 {
			e := elems[rng.Intn(len(elems))]
			e.V0++
			e.Info.Mark()
		}
		wr.Start(ckpt.Incremental)
		if err := wr.CheckpointDirty(tr, nil); err != nil {
			b.Fatal(err)
		}
		if _, _, err := wr.Finish(); err != nil {
			b.Fatal(err)
		}
	}
	if tr.Degraded() {
		b.Fatal("the tracker degraded")
	}
}

// watchedSparse drains the construction-time flags of a sparse graph with a
// Full checkpoint and watches the graph with a fresh tracker, returning the
// writer for the dirty epochs and the tracker.
func watchedSparse(b *testing.B, w *synth.Workload) (*ckpt.Writer, *ckpt.Tracker) {
	wr := ckpt.NewWriter()
	wr.Start(ckpt.Full)
	if err := w.CheckpointGeneric(wr); err != nil {
		b.Fatal(err)
	}
	if _, _, err := wr.Finish(); err != nil {
		b.Fatal(err)
	}
	tr := ckpt.NewTracker()
	w.Domain.AttachTracker(tr)
	if err := tr.Watch(w.Roots()...); err != nil {
		b.Fatal(err)
	}
	return wr, tr
}

// BenchmarkDirtyFoldFraction measures the dirty drain over synth-sparse's
// 104 000-object graph as the dirty fraction grows: per op, seeded element
// marks as BenchmarkDirtyFoldSparse makes them (outside the timer, repeats
// included), then one CheckpointDirty. Up to 6 500 marks the queue stays
// below 1/16 of the graph and Take sorts it; from 26 000 on the tracker
// collects the dirty set by its in-order dense scan, so the sizes either
// side of the threshold show where the scan starts to win.
func BenchmarkDirtyFoldFraction(b *testing.B) {
	w, elems := sparseGraph(4000)
	wr, tr := watchedSparse(b, w)
	rng := rand.New(rand.NewSource(11))
	for _, marks := range []int{200, 1000, 6500, 26000, 104000} {
		b.Run(fmt.Sprintf("marks=%d", marks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for range marks {
					e := elems[rng.Intn(len(elems))]
					e.V0++
					e.Info.Mark()
				}
				b.StartTimer()
				wr.Start(ckpt.Incremental)
				if err := wr.CheckpointDirty(tr, nil); err != nil {
					b.Fatal(err)
				}
				if _, _, err := wr.Finish(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	if tr.Degraded() {
		b.Fatal("the tracker degraded")
	}
}

// BenchmarkApplyRunSparse measures one rewind's replay at the size the
// repository benchmark runs it: a reused rebuilder, as RewindTo callers have.
func BenchmarkApplyRunSparse(b *testing.B) {
	benchApplyRun(b, synth.Registry(), sparseChain(b, 4000))
}

// BenchmarkApplyRunSmall replays the same chain over 5 200 objects, a state
// that stays in cache as the analysis-phases workload's does, so the cost per
// record shows rather than the cost per cache miss.
func BenchmarkApplyRunSmall(b *testing.B) {
	benchApplyRun(b, synth.Registry(), sparseChain(b, 200))
}

// benchApplyRun measures replaying bodies as one run into a reused rebuilder.
func benchApplyRun(b *testing.B, reg *ckpt.Registry, bodies [][]byte) {
	var n int64
	for _, body := range bodies {
		n += int64(len(body))
	}
	rb := ckpt.NewRebuilder(reg)
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rb.ApplyRun(bodies); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildSparse measures materializing the 104 000 objects that chain
// leaves behind.
func BenchmarkBuildSparse(b *testing.B) {
	rb := ckpt.NewRebuilder(synth.Registry())
	if err := rb.ApplyRun(sparseChain(b, 4000)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rb.Build(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoverSparse measures a restart's shape at synth-sparse size: a
// fresh rebuilder replays the whole chain, then builds its 104 000 objects.
// Neither loop above measures it — ApplyRunSparse reuses its rebuilder's
// grown state, BuildSparse skips the replay.
func BenchmarkRecoverSparse(b *testing.B) {
	bodies := sparseChain(b, 4000)
	reg := synth.Registry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb := ckpt.NewRebuilder(reg)
		if err := rb.ApplyRun(bodies); err != nil {
			b.Fatal(err)
		}
		if _, err := rb.Build(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// blobDeltaChain is the replay chain of one blob-dense benchmark rewind at its
// longest: a Full of 96 blobs of 16 KB, then 63 incrementals in which every
// blob has 8 runs of 102 bytes (5%) rewritten and ships as a delta record.
func blobDeltaChain(tb testing.TB) [][]byte {
	const (
		blobs = 96
		size  = 16 << 10
		runs  = 8
		run   = 102
	)
	d := ckpt.NewDomain()
	objs := make([]*blob, blobs)
	for i := range objs {
		objs[i] = newBlob(d, size, int64(i))
	}
	w := ckpt.NewWriter(ckpt.WithDeltaEncoding(4096))
	rng := rand.New(rand.NewSource(1))
	bodies := make([][]byte, 0, 64)
	for epoch := 0; epoch < 64; epoch++ {
		mode := ckpt.Incremental
		if epoch == 0 {
			mode = ckpt.Full
		}
		w.Start(mode)
		for _, o := range objs {
			if err := w.Checkpoint(o); err != nil {
				tb.Fatal(err)
			}
		}
		body, _, err := w.Finish()
		if err != nil {
			tb.Fatal(err)
		}
		bodies = append(bodies, append([]byte(nil), body...))
		for _, o := range objs {
			for r := 0; r < runs; r++ {
				off := rng.Intn(size - run)
				rng.Read(o.data[off : off+run])
			}
			o.info.Mark()
		}
	}
	if info, err := ckpt.InspectBodyKinds(bodies[len(bodies)-1], nil); err != nil || info.Deltas != blobs {
		tb.Fatalf("last body: %+v, %v; want %d delta records", info, err, blobs)
	}
	return bodies
}

// BenchmarkApplyRunBlob measures one blob-dense rewind's replay: every
// incremental record is a delta whose 16 KB base is fingerprinted before it
// is applied.
func BenchmarkApplyRunBlob(b *testing.B) {
	benchApplyRun(b, blobRegistry(b), blobDeltaChain(b))
}

// BenchmarkApplyFollowBlob replays the same chain the way a replica follows a
// stream: one Apply per body as it arrives, into a reused rebuilder.
func BenchmarkApplyFollowBlob(b *testing.B) {
	bodies := blobDeltaChain(b)
	var n int64
	for _, body := range bodies {
		n += int64(len(body))
	}
	rb := ckpt.NewRebuilder(blobRegistry(b))
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			if err := rb.Apply(body); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDeltaEmitBlob is the blob-dense benchmark workload's fold at its
// real size, without the log: 96 blobs of 16 KB, 8 runs of 102 bytes rewritten
// in each per epoch (5%), one delta-encoding writer under a session that keeps
// 1 or 16 epochs unacknowledged. B/op is the shadow upkeep an epoch pays
// beyond the bytes it ships: ≈ 0 with heads patched in place (≈ 1.6 MB when
// every record staged a fresh payload copy).
func BenchmarkDeltaEmitBlob(b *testing.B) {
	const (
		blobs = 96
		size  = 16 << 10
		runs  = 8
		run   = 102
	)
	for _, unacked := range []int{1, 16} {
		b.Run(fmt.Sprintf("unacked=%d", unacked), func(b *testing.B) {
			d := ckpt.NewDomain()
			objs := make([]*blob, blobs)
			for i := range objs {
				objs[i] = newBlob(d, size, int64(i))
			}
			s := ckpt.NewSession()
			w := ckpt.NewWriter(ckpt.WithSession(s), ckpt.WithDeltaEncoding(4096))
			rng := rand.New(rand.NewSource(1))
			epoch := func(mode ckpt.Mode) {
				w.Start(mode)
				for _, o := range objs {
					for r := 0; r < runs; r++ {
						off := r * (size / runs)
						rng.Read(o.data[off : off+run])
					}
					o.info.Mark()
					if err := w.Checkpoint(o); err != nil {
						b.Fatal(err)
					}
				}
				if _, _, err := w.Finish(); err != nil {
					b.Fatal(err)
				}
				if e := w.Epoch(); e > uint64(unacked) {
					s.Commit(e - uint64(unacked))
				}
			}
			epoch(ckpt.Full)
			for i := 0; i < unacked+2; i++ {
				epoch(ckpt.Incremental)
			}
			b.SetBytes(blobs * size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				epoch(ckpt.Incremental)
			}
		})
	}
}
