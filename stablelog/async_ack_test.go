package stablelog_test

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"ickpt/ckpt"
	"ickpt/internal/faultfs"
	"ickpt/stablelog"
)

// ackRecorder collects acknowledgement callbacks in delivery order.
type ackRecorder struct {
	mu    sync.Mutex
	order []uint64
	errs  map[uint64]error
}

func newAckRecorder() *ackRecorder {
	return &ackRecorder{errs: make(map[uint64]error)}
}

func (r *ackRecorder) ack(epoch uint64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.order = append(r.order, epoch)
	r.errs[epoch] = err
}

func (r *ackRecorder) snapshot() ([]uint64, map[uint64]error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	order := append([]uint64(nil), r.order...)
	errs := make(map[uint64]error, len(r.errs))
	for k, v := range r.errs {
		errs[k] = v
	}
	return order, errs
}

// TestAsyncAckGroupCommit: with a sync policy, acknowledgements fire only
// after the fsync covering the body, in append order, all nil on success.
func TestAsyncAckGroupCommit(t *testing.T) {
	m := faultfs.NewMem()
	l, err := stablelog.Create("a.log", stablelog.WithFS(m))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	rec := newAckRecorder()
	aw := stablelog.NewAsyncWriter(l,
		stablelog.WithSyncEvery(3), stablelog.WithAck(rec.ack))
	for e := uint64(1); e <= 5; e++ {
		if err := aw.Append(ckpt.Incremental, e, []byte("body")); err != nil {
			t.Fatal(err)
		}
	}
	// Epochs 1-3 crossed the every-3 group commit; 4 and 5 are written but
	// unacknowledged until a sync covers them.
	if err := aw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	order, errs := rec.snapshot()
	if len(order) != 5 {
		t.Fatalf("acks after Flush = %v, want epochs 1..5", order)
	}
	for i, e := range order {
		if e != uint64(i+1) {
			t.Fatalf("ack order = %v, want ascending epochs", order)
		}
		if errs[e] != nil {
			t.Errorf("epoch %d acked with error %v, want nil", e, errs[e])
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	if st := aw.Stats(); st.Acked != 5 || st.Dropped != 0 {
		t.Errorf("stats = %+v, want 5 acked, 0 dropped", st)
	}
}

// TestAsyncAckStickyError: a failed write acknowledges the failing body and
// every stranded one with the error, and counts them dropped — the
// lost-update path that used to be silent.
func TestAsyncAckStickyError(t *testing.T) {
	m := faultfs.NewMem()
	l, err := stablelog.Create("a.log", stablelog.WithFS(m))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	rec := newAckRecorder()
	entered := make(chan struct{}) // first ack has begun: epoch 1 is durable
	block := make(chan struct{})   // released once epochs 2..4 are staged
	first := true
	aw := stablelog.NewAsyncWriter(l, stablelog.WithSyncEvery(1),
		stablelog.WithAck(func(epoch uint64, err error) {
			if first {
				first = false
				close(entered)
				<-block // hold the background goroutine so epochs 2..4 queue up
			}
			rec.ack(epoch, err)
		}))
	if err := aw.Append(ckpt.Incremental, 1, []byte("good")); err != nil {
		t.Fatal(err)
	}
	// Wait for epoch 1's ack to begin — its write and fsync are already done —
	// so the injected fault below can only hit epoch 2's write.
	<-entered
	for e := uint64(2); e <= 4; e++ {
		if err := aw.Append(ckpt.Incremental, e, []byte("doomed")); err != nil {
			t.Fatal(err)
		}
	}
	// Epoch 2's write fails; 3 and 4 are stranded behind the sticky error.
	m.FailWrite(1, 0, syscall.EIO)
	close(block)

	if err := aw.Close(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Close = %v, want EIO", err)
	}
	order, errs := rec.snapshot()
	if len(order) != 4 {
		t.Fatalf("acks = %v, want all four epochs acknowledged", order)
	}
	if errs[1] != nil {
		t.Errorf("epoch 1 acked with %v, want nil", errs[1])
	}
	for e := uint64(2); e <= 4; e++ {
		if !errors.Is(errs[e], syscall.EIO) {
			t.Errorf("epoch %d acked with %v, want EIO", e, errs[e])
		}
	}
	if st := aw.Stats(); st.Acked != 1 || st.Dropped != 3 {
		t.Errorf("stats = %+v, want 1 acked, 3 dropped", st)
	}
}

// TestAsyncErrorHappensAfterFailureAcks pins the order of a failure: the
// sticky error becomes visible — to Flush, to a producer in Append — only
// after every acknowledgement it implies has been delivered, so a caller that
// reacts to the error finds its session already holding the aborts. The writer
// goroutine is parked inside its first failure ack; nothing may get past it.
func TestAsyncErrorHappensAfterFailureAcks(t *testing.T) {
	m := faultfs.NewMem()
	l, err := stablelog.Create("a.log", stablelog.WithFS(m))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	entered := make(chan struct{}) // epoch 1's ack has begun
	block := make(chan struct{})   // released once epochs 2..4 are queued
	parked := make(chan struct{})  // the first failure ack has begun
	release := make(chan struct{}) // lets it, and the acks behind it, finish
	var delivered atomic.Int32     // failure acks that have returned
	aw := stablelog.NewAsyncWriter(l, stablelog.WithSyncEvery(1),
		stablelog.WithAck(func(epoch uint64, err error) {
			switch {
			case epoch == 1:
				close(entered)
				<-block
			case epoch == 2:
				close(parked)
				<-release
			}
			if err != nil {
				delivered.Add(1)
			}
		}))
	if err := aw.Append(ckpt.Incremental, 1, []byte("good")); err != nil {
		t.Fatal(err)
	}
	<-entered
	for e := uint64(2); e <= 4; e++ {
		if err := aw.Append(ckpt.Incremental, e, []byte("doomed")); err != nil {
			t.Fatal(err)
		}
	}
	m.FailWrite(1, 0, syscall.EIO) // epoch 2's write; 3 and 4 are stranded behind it
	close(block)
	<-parked

	// The writer sits in epoch 2's failure ack; 3 and 4 have not had theirs.
	if err := aw.StickyErr(); err != nil {
		t.Fatalf("sticky error %v visible with %d of 3 failure acks delivered", err, delivered.Load())
	}
	type result struct {
		err   error
		acked int32
	}
	flushed, appended := make(chan result, 1), make(chan result, 1)
	go func() {
		err := aw.Flush()
		flushed <- result{err, delivered.Load()}
	}()
	go func() {
		err := aw.Append(ckpt.Incremental, 5, []byte("late"))
		appended <- result{err, delivered.Load()}
	}()
	select {
	case r := <-flushed:
		t.Fatalf("Flush returned %v with the first failure ack still running", r.err)
	case r := <-appended:
		t.Fatalf("Append returned %v with the first failure ack still running", r.err)
	default:
	}
	close(release)
	for name, ch := range map[string]chan result{"Flush": flushed, "Append": appended} {
		if r := <-ch; !errors.Is(r.err, syscall.EIO) || r.acked != 3 {
			t.Errorf("%s = %v after %d failure acks, want EIO after all 3", name, r.err, r.acked)
		}
	}
	if err := aw.Close(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Close = %v, want EIO", err)
	}
	if st := aw.Stats(); st.Acked != 1 || st.Dropped != 3 {
		t.Errorf("stats = %+v, want 1 acked, 3 dropped (epoch 5 never entered the queue)", st)
	}
}

// TestAsyncRetryTransientErrIO: a transient EIO on the write path is
// retried under WithRetry and never becomes sticky; everything acks nil.
func TestAsyncRetryTransientErrIO(t *testing.T) {
	m := faultfs.NewMem()
	l, err := stablelog.Create("a.log", stablelog.WithFS(m))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	rec := newAckRecorder()
	aw := stablelog.NewAsyncWriter(l,
		stablelog.WithSyncEvery(1),
		stablelog.WithRetry(3, time.Millisecond),
		stablelog.WithAck(rec.ack))
	m.FailWrite(1, 0, syscall.EIO) // first write fails once, then recovers
	for e := uint64(1); e <= 3; e++ {
		if err := aw.Append(ckpt.Incremental, e, []byte("body")); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatalf("Close after transient fault = %v, want nil", err)
	}
	_, errs := rec.snapshot()
	for e := uint64(1); e <= 3; e++ {
		if got, ok := errs[e]; !ok || got != nil {
			t.Errorf("epoch %d ack = %v (present=%v), want nil", e, got, ok)
		}
	}
	st := aw.Stats()
	if st.Acked != 3 || st.Dropped != 0 {
		t.Errorf("stats = %+v, want 3 acked, 0 dropped", st)
	}
	if st.Retried == 0 {
		t.Error("expected at least one retry to be counted")
	}
	if got := len(l.Segments()); got != 3 {
		t.Errorf("log has %d segments, want 3", got)
	}
}

// TestAsyncRetrySyncPath: a transient fsync failure is retried too.
func TestAsyncRetrySyncPath(t *testing.T) {
	m := faultfs.NewMem()
	l, err := stablelog.Create("a.log", stablelog.WithFS(m))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	aw := stablelog.NewAsyncWriter(l,
		stablelog.WithSyncEvery(1), stablelog.WithRetry(3, time.Millisecond))
	m.FailSync(1, syscall.EIO)
	if err := aw.Append(ckpt.Incremental, 1, []byte("body")); err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatalf("Close after transient sync fault = %v, want nil", err)
	}
	if st := aw.Stats(); st.Retried == 0 {
		t.Error("expected the sync retry to be counted")
	}
}

// TestAsyncAppendUnblocksOnClose: a producer blocked on a 1-slot queue gets
// ErrClosed promptly when Close runs concurrently, instead of waiting for
// the queue to drain on a slow or stuck disk.
func TestAsyncAppendUnblocksOnClose(t *testing.T) {
	m := faultfs.NewMem()
	l, err := stablelog.Create("a.log", stablelog.WithFS(m))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	gate := make(chan struct{})
	aw := stablelog.NewAsyncWriter(l, stablelog.WithQueueLimit(1),
		stablelog.WithAck(func(uint64, error) { <-gate }))
	// First body: accepted, then the background goroutine parks in the ack
	// callback, simulating a stuck disk with the queue slot freed only
	// after ack. Keep the slot full with a second append racing in.
	if err := aw.Append(ckpt.Incremental, 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := aw.Append(ckpt.Incremental, 2, []byte("b")); err != nil {
		t.Fatal(err)
	}

	blocked := make(chan error, 1)
	go func() {
		// Queue limit 1 and one body already queued: this blocks.
		blocked <- aw.Append(ckpt.Incremental, 3, []byte("c"))
	}()
	for deadline := time.Now().Add(2 * time.Second); aw.Parked() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("third Append never parked on the full queue")
		}
		runtime.Gosched()
	}

	closeDone := make(chan error, 1)
	go func() { closeDone <- aw.Close() }()

	select {
	case err := <-blocked:
		if !errors.Is(err, stablelog.ErrClosed) {
			t.Fatalf("blocked Append = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Append still blocked 2s after Close; producers must be released promptly")
	}
	close(gate) // un-stick the "disk" so Close can finish
	if err := <-closeDone; err != nil {
		t.Fatalf("Close: %v", err)
	}
}
