package stablelog

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ickpt/ckpt"
	"ickpt/wire"
)

// AsyncWriter appends checkpoint bodies to a Log from a background
// goroutine, so that the application resumes as soon as the in-memory body
// has been handed off — the paper's asynchronous stable-storage write.
//
// The queue may be bounded (WithQueueLimit): when full, Append blocks until
// the writer drains, so a slow disk applies backpressure instead of growing
// memory without limit. Durability is governed by a group-commit fsync
// policy (WithSyncEvery / WithSyncInterval); with a policy active, Flush
// does not return until everything written has also been fsynced.
//
// The unit of I/O is the fsync group, not the body: the writer takes what
// is queued a batch at a time, frames each body into a staging buffer owned
// by the log, and writes the buffer with one write at the group commit,
// right before its fsync (without a policy: after each batch, before its
// acknowledgements). A group larger than the buffer takes several writes,
// and a body larger than the buffer is written on its own; where writes
// begin and end follows from the body sizes and the sync points alone,
// never from how the queue happened to fill. Nothing stays staged across a
// returning Flush or Close.
//
// Each accepted body is individually acknowledged (WithAck) once its fate
// is known: nil when it is durably written, the failure otherwise. Wiring
// the acknowledgement to a ckpt.Session closes the gap between the
// checkpoint writers (which clear modified flags at encode time) and the
// log: the session commits an epoch only when its body is acknowledged
// durable, and aborts — re-marking the cleared flags — when it is not.
//
// Bodies enter the queue either by Append — which copies — or by the
// zero-copy pair Reserve/Submit, which hands the writer an encoder backed
// by a recycled log-owned buffer so checkpoint Record calls write body
// bytes straight into storage the log owns: the producer copies nothing,
// and the one copy a body takes — into its group's write, unless it is too
// large to share one — happens on the background goroutine (see DESIGN.md
// decision 11 for the ownership contract).
//
// Appends are ordered. Transient I/O failures (ErrIO) are retried under a
// bounded backoff policy (WithRetry); the first unrecovered write or sync
// error is sticky: it fails all subsequent operations and is returned by
// Flush and Close, and every body it strands is acknowledged with the error
// and counted in Stats().Dropped — never discarded silently. AsyncWriter is
// safe for use by one producer goroutine.
type AsyncWriter struct {
	log *Log

	queueLimit   int
	syncEvery    int
	syncInterval time.Duration
	ack          func(epoch uint64, err error)
	retryN       int
	retryBackoff time.Duration

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []asyncItem // accepted bodies, the batch being written included
	free     []*wire.Encoder
	bodyHint int // length of the last accepted body: presizes a fresh Reserve encoder
	dirty    int // segments staged or written since the last fsync
	syncReq  bool
	// failing is set while a failure's acknowledgements are being delivered:
	// the queue is already empty but err is not published yet, and push and
	// Flush wait it out (see fail).
	failing bool
	err     error
	closed  bool
	parked  int // producers waiting in push; only tests read it (Parked)
	stats   AsyncStats
	done    chan struct{}

	// unsynced holds the epochs that left the queue and await their ack: the
	// current fsync group under a policy, the batch just written without
	// one. Only the background goroutine touches it.
	unsynced []uint64
}

type asyncItem struct {
	mode  ckpt.Mode
	epoch uint64
	body  []byte
	// enc, when non-nil, owns body's backing storage (a Submit handoff);
	// the writer recycles it into the free list once the body has been
	// copied into the log's staging buffer, written, or dropped.
	enc *wire.Encoder
}

// maxFreeEncoders bounds the Reserve/Submit recycle list; encoders beyond it
// are dropped to the garbage collector. Steady-state use holds one or two.
const maxFreeEncoders = 8

// oversized reports an encoder the free list should not keep: one grown for
// a far larger body (a Full, say) than the one it just carried, which would
// pin that capacity behind every small body it carries from now on. Buffers
// up to gatherSize are always worth keeping.
func oversized(enc *wire.Encoder) bool {
	c := cap(enc.Bytes())
	return c > gatherSize && c > 4*enc.Len()
}

// AsyncStats counts acknowledgement outcomes over the writer's lifetime.
type AsyncStats struct {
	// Acked counts bodies acknowledged as durably written.
	Acked uint64
	// Dropped counts bodies accepted by Append that will never be durable:
	// queued bodies discarded after a sticky error, the failing body
	// itself, and bodies written but not fsynced when a sync policy fails.
	// Before the acknowledgement protocol these were discarded silently.
	Dropped uint64
	// Retried counts transient-ErrIO retry attempts (appends and syncs).
	Retried uint64
}

// AsyncOption configures NewAsyncWriter.
type AsyncOption interface {
	applyAsync(*AsyncWriter)
}

type asyncOptionFunc func(*AsyncWriter)

func (f asyncOptionFunc) applyAsync(w *AsyncWriter) { f(w) }

// WithQueueLimit bounds the number of queued bodies. When the queue is
// full, Append blocks until the background writer catches up. n <= 0 means
// unbounded (the default). An error — or Close — unblocks waiting
// producers promptly.
func WithQueueLimit(n int) AsyncOption {
	return asyncOptionFunc(func(w *AsyncWriter) { w.queueLimit = n })
}

// WithSyncEvery fsyncs the log after every n appended segments — group
// commit by count. n <= 0 disables the policy (the default); n == 1 syncs
// every append.
func WithSyncEvery(n int) AsyncOption {
	return asyncOptionFunc(func(w *AsyncWriter) { w.syncEvery = n })
}

// WithSyncInterval fsyncs the log at most d after a segment was appended —
// group commit by time. It composes with WithSyncEvery; whichever trips
// first wins.
func WithSyncInterval(d time.Duration) AsyncOption {
	return asyncOptionFunc(func(w *AsyncWriter) { w.syncInterval = d })
}

// WithAck registers a per-append acknowledgement callback, invoked exactly
// once per body accepted by Append, from the background goroutine, in
// append order. With a group-commit policy active, fn(epoch, nil) fires
// after the fsync covering the body — durable means durable; without a
// policy it fires after the write (whose durability is the underlying
// log's: immediate under WithSync, deferred to Log.Sync/Close otherwise).
// On failure fn(epoch, err) fires for the failing body and for every body
// stranded behind it, and no later body is written: the failure is sticky.
//
// ckpt.Session.Ack matches this signature: pass it here and the session
// commits epochs exactly when their bodies are durable and aborts the rest.
// Delta-encoded epochs rely on the stickiness: once one body is lost, no
// later epoch, which may carry deltas against it, may reach the log (the
// sink contract on ckpt.Session.Abort).
func WithAck(fn func(epoch uint64, err error)) AsyncOption {
	return asyncOptionFunc(func(w *AsyncWriter) { w.ack = fn })
}

// WithRetry retries transient I/O failures (errors wrapping ErrIO) up to n
// times per operation before the error goes sticky, sleeping backoff before
// the first retry and doubling it each attempt. Corruption-class errors are
// never retried. n <= 0 disables retry (the default).
func WithRetry(n int, backoff time.Duration) AsyncOption {
	return asyncOptionFunc(func(w *AsyncWriter) {
		w.retryN = n
		w.retryBackoff = backoff
	})
}

// NewAsyncWriter starts the background writer. The caller must not use log
// directly until Close returns.
func NewAsyncWriter(log *Log, opts ...AsyncOption) *AsyncWriter {
	w := &AsyncWriter{
		log:  log,
		done: make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.mu)
	for _, o := range opts {
		o.applyAsync(w)
	}
	go w.run()
	if w.syncInterval > 0 {
		go w.tick()
	}
	return w
}

// policyActive reports whether a group-commit fsync policy is configured.
func (w *AsyncWriter) policyActive() bool {
	return w.syncEvery > 0 || w.syncInterval > 0
}

// Append enqueues body for writing, blocking while a bounded queue is full.
// The body is copied, so the caller may reuse its buffer immediately
// (checkpoint writers recycle theirs). A producer blocked on a full queue
// is released with ErrClosed as soon as Close begins, and with the sticky
// error once the acknowledgements of the failure behind it have been
// delivered (see fail).
func (w *AsyncWriter) Append(mode ckpt.Mode, epoch uint64, body []byte) error {
	cp := make([]byte, len(body))
	copy(cp, body)
	return w.push(asyncItem{mode: mode, epoch: epoch, body: cp})
}

// Reserve returns an empty encoder backed by a recycled body buffer, for
// the zero-copy encode path: point a checkpoint writer at it
// (ckpt.Writer.SwapEncoder), let Record write the body
// straight into it, and hand it back with Submit. The encoder — and every
// slice its Bytes returned — is owned by the AsyncWriter again after
// Submit; Reserve recycles buffers of bodies already staged or written, so
// a steady-state reserve/encode/submit loop stops allocating body storage
// once its buffers have grown to the body size. A buffer grown for a far
// larger body than the one it last carried is not kept (see oversized).
func (w *AsyncWriter) Reserve() *wire.Encoder {
	w.mu.Lock()
	var enc *wire.Encoder
	if n := len(w.free); n > 0 {
		enc = w.free[n-1]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
	}
	hint := w.bodyHint
	w.mu.Unlock()
	if enc == nil {
		// Sized for a body like the last one, so encoding into it does not
		// grow it step by step — but not for an outlier the free list would
		// refuse to keep.
		enc = wire.NewEncoder(min(hint, gatherSize))
	}
	enc.Reset()
	return enc
}

// Submit enqueues the contents of enc — a body encoded into a Reserve
// encoder — for writing, without copying on the caller's side: ownership of
// enc and its buffer transfers to the AsyncWriter, which recycles it once
// the background goroutine has staged the body for its group's write (or
// dropped it on failure). The caller must not touch enc, or any
// body slice aliasing it, after Submit returns — including on error.
// Blocking, backpressure, acknowledgement, and retry behave exactly as for
// Append.
func (w *AsyncWriter) Submit(mode ckpt.Mode, epoch uint64, enc *wire.Encoder) error {
	err := w.push(asyncItem{mode: mode, epoch: epoch, body: enc.Bytes(), enc: enc})
	if err != nil {
		// The item never entered the queue; reclaim its buffer here.
		w.mu.Lock()
		w.recycleLocked(enc)
		w.mu.Unlock()
	}
	return err
}

// push enqueues one item, blocking while a bounded queue is full.
func (w *AsyncWriter) push(item asyncItem) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.failing || (w.queueLimit > 0 && len(w.queue) >= w.queueLimit && w.err == nil && !w.closed) {
		w.parked++
		w.cond.Wait()
		w.parked--
	}
	if w.closed {
		return ErrClosed
	}
	if w.err != nil {
		return w.err
	}
	w.queue = append(w.queue, item)
	w.bodyHint = len(item.body)
	w.cond.Broadcast()
	return nil
}

// Recycle returns a Reserve encoder the caller will never Submit — an epoch
// whose fold aborted after reserving its buffer — to the free list, so a
// failed checkpoint does not leak the reservation. Recycle accepts exactly
// one of each Reserve: an encoder must not be recycled after Submit (Submit
// already transfers ownership back, success or failure), and recycling the
// same encoder twice would alias two future reservations onto one buffer.
// Safe to call after Close. A nil enc is a no-op.
func (w *AsyncWriter) Recycle(enc *wire.Encoder) {
	w.mu.Lock()
	w.recycleLocked(enc)
	w.mu.Unlock()
}

// recycleLocked returns a Submit encoder to the free list, still holding the
// body it carried. Caller holds w.mu. Identity-deduped: an encoder already on
// the free list is left alone, so a double-recycle (a Close racing an abort
// path, say) cannot hand the same buffer to two reservations.
func (w *AsyncWriter) recycleLocked(enc *wire.Encoder) {
	if enc == nil || len(w.free) >= maxFreeEncoders || oversized(enc) {
		return
	}
	for _, e := range w.free {
		if e == enc {
			return
		}
	}
	enc.Reset()
	w.free = append(w.free, enc)
}

// Flush blocks until every enqueued body has been written (or a write has
// failed) and returns the first write error, if any. With an fsync policy
// active it additionally forces a group commit, so a nil return means the
// flushed segments are durable — and their acknowledgements have fired. An
// error return means the same of the failure: every body it stranded has been
// acknowledged with it.
func (w *AsyncWriter) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.err
	}
	for w.err == nil {
		if !w.failing {
			// Re-arm the sync request each pass: a count-triggered group commit
			// mid-flush consumes syncReq while later bodies are still queued, and
			// those must be covered by a sync of their own before Flush returns.
			if w.policyActive() && w.dirty > 0 && !w.syncReq {
				w.syncReq = true
				w.cond.Broadcast()
			}
			if len(w.queue) == 0 && !w.syncReq && (!w.policyActive() || w.dirty == 0) {
				break
			}
		}
		w.cond.Wait()
	}
	return w.err
}

// Close flushes, performs a final group commit if a policy is active, stops
// the background goroutine, and returns the first write error, if any. It
// does not close the underlying Log. Check Stats().Dropped for the number
// of bodies a sticky error forced the writer to discard.
func (w *AsyncWriter) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()

	<-w.done

	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Stats returns a snapshot of the acknowledgement counters.
func (w *AsyncWriter) Stats() AsyncStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// acknowledge fires the ack callback outside the writer's lock. Callers
// must not hold w.mu. All invocations come from the background goroutine,
// so acknowledgements are delivered in append order.
func (w *AsyncWriter) acknowledge(epoch uint64, err error) {
	if w.ack != nil {
		w.ack(epoch, err)
	}
}

// retryable reports whether err is worth retrying under the retry policy.
func retryable(err error) bool {
	return errors.Is(err, ErrIO)
}

// retry runs op — a log append or an fsync — retrying transient failures per
// the retry policy. Called without w.mu held.
func (w *AsyncWriter) retry(op func() error) error {
	backoff := w.retryBackoff
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || attempt >= w.retryN || !retryable(err) {
			return err
		}
		w.mu.Lock()
		w.stats.Retried++
		w.mu.Unlock()
		if backoff > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
	}
}

// run is the background writer loop.
func (w *AsyncWriter) run() {
	defer close(w.done)
	for {
		w.mu.Lock()
		for len(w.queue) == 0 && !w.syncReq && !w.closed {
			w.cond.Wait()
		}
		if len(w.queue) == 0 {
			needSync := (w.syncReq || (w.closed && w.policyActive())) && w.dirty > 0
			if w.syncReq && w.dirty == 0 {
				w.syncReq = false
				w.cond.Broadcast()
			}
			closed := w.closed
			w.mu.Unlock()
			if needSync && !w.doSync() {
				return
			}
			if closed {
				return
			}
			continue
		}
		// One batch per lock round-trip: everything queued, but never past
		// the next count-triggered group commit, so the fsync cadence is
		// WithSyncEvery's whatever the queue held. The batch stays in the
		// queue — counted by WithQueueLimit and by Flush — until it is done;
		// producers append behind it.
		n := len(w.queue)
		if w.syncEvery > 0 {
			n = min(n, w.syncEvery-w.dirty)
		}
		batch := w.queue[:n:n]
		w.mu.Unlock()

		if err := w.writeBatch(batch); err != nil {
			w.fail(fmt.Errorf("async append: %w", err))
			return
		}

		w.mu.Lock()
		for i := range batch {
			w.unsynced = append(w.unsynced, batch[i].epoch)
			w.recycleLocked(batch[i].enc)
		}
		rest := copy(w.queue, w.queue[n:])
		clear(w.queue[rest:])
		w.queue = w.queue[:rest]
		policy := w.policyActive()
		if policy {
			// Durable only after the covering group commit; the epochs stay
			// parked until doSync acknowledges them.
			w.dirty += n
		} else {
			w.stats.Acked += uint64(n)
		}
		syncNow := w.syncEvery > 0 && w.dirty >= w.syncEvery
		w.cond.Broadcast()
		w.mu.Unlock()
		if !policy {
			w.ackUnsynced(nil)
		}
		if syncNow && !w.doSync() {
			return
		}
	}
}

// writeBatch stages the batch in the log, in order, and without a sync
// policy writes it out: the acknowledgements that follow promise a write.
// Under a policy the bytes wait in the log's staging buffer for the group
// commit, which writes them with the rest of its group. It returns the
// first error retries did not cure. Called without w.mu held.
func (w *AsyncWriter) writeBatch(batch []asyncItem) error {
	for i := range batch {
		item := &batch[i]
		err := w.retry(func() error { return w.log.stage(item.mode, item.epoch, item.body) })
		if err != nil {
			return err
		}
	}
	if w.policyActive() {
		return nil
	}
	return w.retry(w.log.flushStaged)
}

// ackUnsynced acknowledges the parked epochs with err, in append order, and
// forgets them. Called without w.mu held.
func (w *AsyncWriter) ackUnsynced(err error) {
	for _, epoch := range w.unsynced {
		w.acknowledge(epoch, err)
	}
	w.unsynced = w.unsynced[:0]
}

// doSync is the group commit: one write of everything staged, one fsync,
// then the acknowledgement of every body that made durable. It returns
// false when the writer must stop because the write or the fsync failed.
func (w *AsyncWriter) doSync() bool {
	if err := w.retry(w.log.flushStaged); err != nil {
		w.fail(fmt.Errorf("async append: %w", err))
		return false
	}
	if err := w.retry(w.log.Sync); err != nil {
		w.fail(fmt.Errorf("async sync: %w", err))
		return false
	}
	w.mu.Lock()
	w.dirty = 0
	w.stats.Acked += uint64(len(w.unsynced))
	w.mu.Unlock()
	w.ackUnsynced(nil)
	// Release Flush waiters only after the acknowledgements above have fired:
	// a nil Flush promises the flushed bodies are durable and acked.
	w.mu.Lock()
	w.syncReq = false
	w.cond.Broadcast()
	w.mu.Unlock()
	return true
}

// tick requests a group commit whenever un-synced segments have been
// sitting for a full interval.
func (w *AsyncWriter) tick() {
	t := time.NewTicker(w.syncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			w.mu.Lock()
			if w.dirty > 0 && w.err == nil && !w.closed {
				w.syncReq = true
				w.cond.Broadcast()
			}
			w.mu.Unlock()
		case <-w.done:
			return
		}
	}
}

// fail makes cause the sticky error and enters drain mode: fail fast, keep
// accepting Flush and Close. It clears the queue so Flush and a blocked
// Append do not hang, and accounts for every body it strands: each parked
// one (staged or written, not durable) and each queued one (never written)
// is counted in Dropped and acknowledged with the error, in append order, so
// the owning session can abort its epoch. What was staged is dropped from
// the log with it, so the log lists only segments in the file.
//
// The order mirrors doSync's success path: the failure is parked (failing),
// the acknowledgements are delivered without the lock, and only then is the
// error published and the waiters released — a caller that sees the error
// from Flush, Append or Submit finds every epoch it implies already aborted.
// While the acknowledgements run nothing may enter the emptied queue, so push
// waits too; an ack callback must therefore never call back into the writer's
// Append, Submit or Flush.
func (w *AsyncWriter) fail(cause error) {
	w.log.unstage()
	w.mu.Lock()
	w.failing = true
	for i := range w.queue {
		w.unsynced = append(w.unsynced, w.queue[i].epoch)
		w.recycleLocked(w.queue[i].enc)
	}
	w.stats.Dropped += uint64(len(w.unsynced))
	w.queue = nil
	w.syncReq = false
	w.mu.Unlock()
	w.ackUnsynced(cause)
	w.mu.Lock()
	w.failing = false
	w.err = cause
	w.cond.Broadcast()
	w.mu.Unlock()
}
