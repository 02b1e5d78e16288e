package stablelog_test

// Tests of the gathered group commit: AsyncWriter stages a group's segments
// in the log and writes them with one WriteAt. They pin where writes begin
// and end (a function of body sizes and sync points only), that the file is
// the one plain Append builds, what a fault inside a multi-segment write
// leaves behind, and that the writer loop does not allocate.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"ickpt/ckpt"
	"ickpt/internal/faultfs"
	"ickpt/stablelog"
)

// span is one WriteAt as the device saw it.
type span struct {
	Off int64
	Len int
}

// spanFS records the (offset, length) of every WriteAt on its files, and
// counts their fsyncs.
type spanFS struct {
	faultfs.FS
	mu     sync.Mutex
	writes []span
	syncs  int
}

func (fs *spanFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &spanFile{File: f, fs: fs}, nil
}

func (fs *spanFS) take() []span {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := fs.writes
	fs.writes = nil
	return out
}

type spanFile struct {
	faultfs.File
	fs *spanFS
}

func (f *spanFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	f.fs.writes = append(f.fs.writes, span{off, len(p)})
	f.fs.mu.Unlock()
	return f.File.WriteAt(p, off)
}

func (f *spanFile) Sync() error {
	f.fs.mu.Lock()
	f.fs.syncs++
	f.fs.mu.Unlock()
	return f.File.Sync()
}

// gatherBodies returns a seeded sequence of bodies on all three sides of the
// staging buffer: tiny ones that share a write, ~8 KB ones that fill it
// within a group, and ones larger than it.
func gatherBodies(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	bodies := make([][]byte, n)
	for i := range bodies {
		var size int
		switch r := rng.Intn(20); {
		case r == 0:
			size = stablelog.GatherSize + rng.Intn(4096) - imgHdrSize - 8 // straddles the buffer size
		case r < 8:
			size = 7000 + rng.Intn(2500)
		default:
			size = rng.Intn(200)
		}
		b := make([]byte, size)
		rng.Read(b)
		bodies[i] = b
	}
	return bodies
}

func modeOf(i int) ckpt.Mode {
	if i%16 == 0 {
		return ckpt.Full
	}
	return ckpt.Incremental
}

// wantSpans computes, from the body sizes alone, the writes a writer with
// WithSyncEvery(every) must issue when Flush is called after the bodies in
// flushAfter and Close after the last one. start is the offset of the first
// segment.
func wantSpans(start int64, bodies [][]byte, every int, flushAfter map[int]bool) []span {
	var out []span
	off, buf, dirty := start, 0, 0
	flush := func() {
		if buf > 0 {
			out = append(out, span{off, buf})
			off += int64(buf)
			buf = 0
		}
	}
	for i, b := range bodies {
		need := imgHdrSize + len(b)
		if need > stablelog.GatherSize-buf {
			flush()
		}
		if need > stablelog.GatherSize {
			out = append(out, span{off, imgHdrSize}, span{off + imgHdrSize, len(b)})
			off += int64(need)
		} else {
			buf += need
		}
		dirty++
		if dirty == every || flushAfter[i] {
			flush()
			dirty = 0
		}
	}
	flush()
	return out
}

// TestGatheredWriteBoundariesAreTimingFree: under a count policy the
// (offset, length) list of the device's writes is a pure function of the
// body sizes in queue order and of the sync points. However the producer
// and the writer goroutine interleave, the list is the one computed from
// the sizes, and the file is byte-identical to one built by plain Append.
func TestGatheredWriteBoundariesAreTimingFree(t *testing.T) {
	bodies := gatherBodies(20260928, 150)
	flushAfter := map[int]bool{17: true, 18: true, 90: true}

	// The reference file: one Append per body.
	ref := faultfs.NewMem()
	rl, err := stablelog.Create("g.log", stablelog.WithFS(ref))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bodies {
		if _, err := rl.Append(modeOf(i), uint64(i+1), b); err != nil {
			t.Fatal(err)
		}
	}
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}
	refBytes := ref.Snapshot()["g.log"]

	for _, every := range []int{1, 7, 32} {
		for _, limit := range []int{0, 3} {
			want := wantSpans(int64(len(imgMagic)), bodies, every, flushAfter)
			for rep := 0; rep < 20; rep++ {
				name := fmt.Sprintf("every=%d/limit=%d/rep=%d", every, limit, rep)
				mem := faultfs.NewMem()
				fs := &spanFS{FS: mem}
				l, err := stablelog.Create("g.log", stablelog.WithFS(fs))
				if err != nil {
					t.Fatal(err)
				}
				fs.take() // the file magic
				opts := []stablelog.AsyncOption{stablelog.WithSyncEvery(every)}
				if limit > 0 {
					opts = append(opts, stablelog.WithQueueLimit(limit))
				}
				aw := stablelog.NewAsyncWriter(l, opts...)
				jitter := rand.New(rand.NewSource(int64(rep)))
				for i, b := range bodies {
					switch r := jitter.Intn(30); {
					case r == 0:
						time.Sleep(time.Duration(jitter.Intn(200)) * time.Microsecond)
					case r < 10:
						runtime.Gosched()
					}
					// Alternate the two ways a body enters the queue.
					if i%2 == 0 {
						err = aw.Append(modeOf(i), uint64(i+1), b)
					} else {
						enc := aw.Reserve()
						enc.Raw(b)
						err = aw.Submit(modeOf(i), uint64(i+1), enc)
					}
					if err != nil {
						t.Fatalf("%s: body %d: %v", name, i, err)
					}
					if flushAfter[i] {
						if err := aw.Flush(); err != nil {
							t.Fatalf("%s: flush after %d: %v", name, i, err)
						}
					}
				}
				if err := aw.Close(); err != nil {
					t.Fatalf("%s: close: %v", name, err)
				}
				if got := fs.take(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: device saw %d writes, want %d from the sizes alone\n got %v\nwant %v",
						name, len(got), len(want), got, want)
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(mem.Snapshot()["g.log"], refBytes) {
					t.Fatalf("%s: file differs from the one plain Append builds", name)
				}
			}
		}
	}
}

// TestCrashSweepGatheredWrite: a power cut at every byte of a write that
// carries several segments — inner segment boundaries included — leaves a
// log Open(WithTruncateTorn) recovers to a whole-segment prefix holding
// every acknowledged epoch, and recovering that recovery is stable.
func TestCrashSweepGatheredWrite(t *testing.T) {
	m := faultfs.NewMem()
	l, err := stablelog.Create(sweepLog, stablelog.WithFS(m))
	if err != nil {
		t.Fatal(err)
	}
	m.Mark("created")
	payloads := [][]byte{
		[]byte("full-0"), []byte("delta-1"), {}, []byte("a longer delta body 3"),
		[]byte("delta-4"), []byte("delta-5"), []byte("delta-6"),
	}
	acked := 0
	acks := map[string][]crashExpectation{"created": {{}}}
	aw := stablelog.NewAsyncWriter(l, stablelog.WithSyncEvery(4),
		stablelog.WithAck(func(epoch uint64, err error) {
			if err != nil {
				t.Errorf("epoch %d acked with %v", epoch, err)
			}
			acked++
			label := fmt.Sprintf("ack-%d", acked)
			acks[label] = []crashExpectation{crashExpectation(payloads[:acked])}
			m.Mark(label)
		}))
	for i, p := range payloads {
		if err := aw.Append(modeOf(i), uint64(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if acked != len(payloads) {
		t.Fatalf("%d of %d epochs acked", acked, len(payloads))
	}

	// A write of four segments, then one of three: the sweep's byte splits
	// cross inner segment boundaries, and a cut inside a write keeps the
	// whole segments before it.
	inner := false
	for _, p := range m.CrashPlan() {
		if p.Partial == 0 || p.Lossy {
			continue
		}
		state := m.CrashState(p)
		reopened := faultfs.NewMemFromState(map[string][]byte{sweepLog: state[sweepLog]})
		lg, err := stablelog.Open(sweepLog, stablelog.WithFS(reopened), stablelog.WithTruncateTorn())
		if err != nil {
			continue // a torn file magic; runCrashSweep judges it
		}
		if n := len(lg.Segments()); n != 0 && n != 4 && n != len(payloads) {
			inner = true
		}
		lg.Close()
		// Recovery after recovery: the truncation the first Open made is
		// itself cut at every point.
		runCrashSweep(t, reopened, [][][]byte{payloads}, map[string][]crashExpectation{})
	}
	if !inner {
		t.Fatal("no cut kept a proper part of a multi-segment write: the writes were not gathered")
	}
	runCrashSweep(t, m, [][][]byte{payloads}, acks)
}

// gatherFixture is a log on a fault-injecting filesystem under a
// WithSyncEvery(4) writer whose first group — epochs 1..4 — is durable, with
// the writer goroutine parked inside epoch 4's acknowledgement until release
// is closed: whatever a test queues meanwhile is all there when the writer
// looks again.
type gatherFixture struct {
	m       *faultfs.Mem
	l       *stablelog.Log
	rec     *ackRecorder
	aw      *stablelog.AsyncWriter
	release chan struct{}
}

func newGatherFixture(t *testing.T, opts ...stablelog.AsyncOption) *gatherFixture {
	t.Helper()
	fx := &gatherFixture{m: faultfs.NewMem(), rec: newAckRecorder(), release: make(chan struct{})}
	l, err := stablelog.Create("f.log", stablelog.WithFS(fx.m))
	if err != nil {
		t.Fatal(err)
	}
	fx.l = l
	durable := make(chan struct{})
	opts = append(opts, stablelog.WithSyncEvery(4), stablelog.WithAck(func(epoch uint64, err error) {
		if epoch == 4 {
			close(durable)
			<-fx.release
		}
		fx.rec.ack(epoch, err)
	}))
	fx.aw = stablelog.NewAsyncWriter(l, opts...)
	for e := uint64(1); e <= 4; e++ {
		if err := fx.aw.Append(modeOf(int(e-1)), e, []byte("durable")); err != nil {
			t.Fatal(err)
		}
	}
	<-durable
	return fx
}

// reopen opens the file as a restart would see it, without forgiveness for a
// torn tail: a garbage or duplicate suffix fails it.
func (fx *gatherFixture) reopen(t *testing.T) *stablelog.Log {
	t.Helper()
	lg, err := stablelog.Open("f.log", stablelog.WithFS(faultfs.NewMemFromState(fx.m.Snapshot())))
	if err != nil {
		t.Fatalf("plain Open after the fault: %v", err)
	}
	return lg
}

// TestGatheredWriteTransientFaultRetried: a transient ErrIO that tears a
// multi-segment write mid-segment is retried with the same bytes: every
// epoch acks nil, Retried counts the attempt, and the file has neither a
// duplicate nor a garbage suffix.
func TestGatheredWriteTransientFaultRetried(t *testing.T) {
	fx := newGatherFixture(t, stablelog.WithRetry(2, 0))
	// The next write is the group of four; let 40 bytes of it land — a whole
	// header and part of a body — before it fails.
	fx.m.FailWrite(1, 40, syscall.EIO)
	for e := uint64(5); e <= 8; e++ {
		if err := fx.aw.Append(ckpt.Incremental, e, []byte(fmt.Sprintf("gathered-%d", e))); err != nil {
			t.Fatal(err)
		}
	}
	close(fx.release)
	if err := fx.aw.Close(); err != nil {
		t.Fatalf("Close after a transient fault = %v, want nil", err)
	}
	if st := fx.aw.Stats(); st.Acked != 8 || st.Dropped != 0 || st.Retried != 1 {
		t.Errorf("stats = %+v, want 8 acked, 0 dropped, 1 retried", st)
	}
	_, errs := fx.rec.snapshot()
	for e := uint64(1); e <= 8; e++ {
		if err, ok := errs[e]; !ok || err != nil {
			t.Errorf("epoch %d ack = %v (present=%v), want nil", e, err, ok)
		}
	}
	if err := fx.l.Close(); err != nil {
		t.Fatal(err)
	}
	lg := fx.reopen(t)
	defer lg.Close()
	if n := len(lg.Segments()); n != 8 {
		t.Fatalf("file holds %d segments, want 8", n)
	}
	for e := uint64(5); e <= 8; e++ {
		if body, err := lg.Read(e); err != nil || string(body) != fmt.Sprintf("gathered-%d", e) {
			t.Errorf("Read(%d) = %q, %v", e, body, err)
		}
	}
}

// TestGatheredWriteStickyFault: a write fault nothing cures acknowledges
// every staged, queued and unsynced epoch with the error exactly once,
// counts them all dropped, and leaves a log — in memory and on disk — that
// lists only the segments written before it.
func TestGatheredWriteStickyFault(t *testing.T) {
	for _, partial := range []int{0, 40} {
		t.Run(fmt.Sprintf("partial=%d", partial), func(t *testing.T) {
			fx := newGatherFixture(t)
			// Epochs 5..8 are the next group: staged, then the failing write.
			// 9 and 10 are still queued behind it.
			fx.m.FailWrite(1, partial, syscall.EIO)
			for e := uint64(5); e <= 10; e++ {
				if err := fx.aw.Append(ckpt.Incremental, e, []byte("doomed")); err != nil {
					t.Fatal(err)
				}
			}
			close(fx.release)
			if err := fx.aw.Close(); !errors.Is(err, syscall.EIO) || !errors.Is(err, stablelog.ErrIO) {
				t.Fatalf("Close = %v, want ErrIO wrapping EIO", err)
			}
			if st := fx.aw.Stats(); st.Acked != 4 || st.Dropped != 6 {
				t.Errorf("stats = %+v, want 4 acked, 6 dropped", st)
			}
			order, errs := fx.rec.snapshot()
			if want := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}; !reflect.DeepEqual(order, want) {
				t.Errorf("acks = %v, want each epoch once, in append order", order)
			}
			for e := uint64(5); e <= 10; e++ {
				if !errors.Is(errs[e], syscall.EIO) {
					t.Errorf("epoch %d acked with %v, want EIO", e, errs[e])
				}
			}
			// The live log lists only what is in the file, and keeps working.
			if n := len(fx.l.Segments()); n != 4 {
				t.Fatalf("Segments() lists %d, want the 4 written", n)
			}
			if seq, err := fx.l.Append(ckpt.Incremental, 11, []byte("after")); err != nil || seq != 5 {
				t.Fatalf("Append after the dead writer = %d, %v; want seq 5", seq, err)
			}
			if err := fx.l.Close(); err != nil {
				t.Fatal(err)
			}
			lg := fx.reopen(t)
			defer lg.Close()
			if n := len(lg.Segments()); n != 5 {
				t.Fatalf("file holds %d segments, want 5", n)
			}
			if body, err := lg.Read(5); err != nil || string(body) != "after" {
				t.Errorf("Read(5) = %q, %v", body, err)
			}
		})
	}
}

// TestGatheredWriteSyncFaultKeepsWritten: when the group's write succeeds
// and its fsync fails for good, the group is dropped — error-acked, not
// durable — but its segments are in the file, and the log says so.
func TestGatheredWriteSyncFaultKeepsWritten(t *testing.T) {
	fx := newGatherFixture(t)
	fx.m.FailSync(1, syscall.EIO)
	for e := uint64(5); e <= 10; e++ {
		if err := fx.aw.Append(ckpt.Incremental, e, []byte("written")); err != nil {
			t.Fatal(err)
		}
	}
	close(fx.release)
	if err := fx.aw.Close(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Close = %v, want EIO", err)
	}
	if st := fx.aw.Stats(); st.Acked != 4 || st.Dropped != 6 {
		t.Errorf("stats = %+v, want 4 acked, 6 dropped", st)
	}
	if order, _ := fx.rec.snapshot(); len(order) != 10 {
		t.Errorf("acks = %v, want each of 10 epochs once", order)
	}
	if n := len(fx.l.Segments()); n != 8 {
		t.Fatalf("Segments() lists %d, want 8: the group 5..8 was written, 9..10 never staged", n)
	}
	if err := fx.l.Close(); err != nil {
		t.Fatal(err)
	}
	lg := fx.reopen(t)
	defer lg.Close()
	if n := len(lg.Segments()); n != 8 {
		t.Fatalf("file holds %d segments, want 8", n)
	}
}

// TestGatheredWriteSyncPerWrite: WithSync on the log is honoured once per
// gathered write, not once per segment, and the writes of a Flush leave
// nothing staged behind.
func TestGatheredWriteSyncPerWrite(t *testing.T) {
	fs := &spanFS{FS: faultfs.NewMem()}
	l, err := stablelog.Create("s.log", stablelog.WithFS(fs), stablelog.WithSync())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fs.take()
	fs.syncs = 0
	aw := stablelog.NewAsyncWriter(l, stablelog.WithSyncEvery(4))
	for e := uint64(1); e <= 6; e++ {
		if err := aw.Append(modeOf(int(e-1)), e, []byte("body")); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw.Flush(); err != nil {
		t.Fatal(err)
	}
	// Two groups (4 + 2): each is one write, one fsync for the log's WithSync
	// and one for the group commit.
	if w := fs.take(); len(w) != 2 {
		t.Errorf("writes = %v, want one per group", w)
	}
	if fs.syncs != 4 {
		t.Errorf("%d fsyncs for two gathered writes under WithSync, want 4", fs.syncs)
	}
	// Flush returned: everything is in the file and in the index.
	if n := len(l.Segments()); n != 6 {
		t.Errorf("Segments() after Flush lists %d, want 6", n)
	}
	if body, err := l.Read(6); err != nil || string(body) != "body" {
		t.Errorf("Read(6) after Flush = %q, %v", body, err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
}

// discardFS keeps no bytes and journals nothing, so that what a test
// measures is the log and the writer, not the filesystem double.
type discardFS struct{ faultfs.FS }

func (fs discardFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return discardFile{f}, nil
}

type discardFile struct{ faultfs.File }

func (discardFile) WriteAt(p []byte, off int64) (int, error) { return len(p), nil }
func (discardFile) Sync() error                              { return nil }

// TestAsyncGroupCommitAllocsZero: a steady-state Reserve / Submit / group
// commit cycle allocates nothing — not the queue, not the parked epochs,
// not the encoders, not the staging buffer. faultfs.Mem journals (and so
// allocates) every write; the gate runs over a wrapper that discards them.
func TestAsyncGroupCommitAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	l, err := stablelog.Create("z.log", stablelog.WithFS(discardFS{faultfs.NewMem()}))
	if err != nil {
		t.Fatal(err)
	}
	var acked int
	aw := stablelog.NewAsyncWriter(l, stablelog.WithSyncEvery(4), stablelog.WithQueueLimit(4),
		stablelog.WithAck(func(uint64, error) { acked++ }))
	body := bytes.Repeat([]byte("steady-state body "), 10)
	epoch := uint64(0)
	cycle := func() {
		// A group and a half — Flush commits the half — and never more bodies
		// in flight than the free list keeps encoders.
		for i := 0; i < 6; i++ {
			epoch++
			enc := aw.Reserve()
			enc.Raw(body[:len(body)-i])
			if err := aw.Submit(ckpt.Incremental, epoch, enc); err != nil {
				t.Fatal(err)
			}
		}
		if err := aw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: the segment table of a live log grows by amortized doubling,
	// so give it room for everything the gate appends.
	for i := 0; i < 400; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("steady-state group-commit cycle allocates %.2f times per 6 epochs, want 0", avg)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	if acked != int(epoch) {
		t.Errorf("%d of %d epochs acked", acked, epoch)
	}
}
