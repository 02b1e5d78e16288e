package main

import (
	"encoding/json"
	"os"
	"sync"
)

// A spanKind names one layer boundary the benchmark wraps. Spans are
// recorded by the benchmark's own code around calls into public functions
// (and inside the filesystem and ack decorators it injects); nothing in the
// program under test knows about them.
type spanKind uint8

const (
	spPass spanKind = iota // root: one timed checkpointed pass
	spStep
	spWriterFold
	spParfoldFold
	spTenantRequest
	spHandoff
	spFlush
	spBase
	spSample
	spFSWrite
	spFSSync
	spAck
	spRestart // root: crash restart (open + recover + build)
	spOpen
	spRecover
	spBuild
	spMaintain // root: retain + rewinds
	spRetain
	spRewind
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	spPass:          "bench.pass",
	spStep:          "workload.step",
	spWriterFold:    "ckpt.writer.fold",
	spParfoldFold:   "ckpt.parfold.fold",
	spTenantRequest: "ckpt.tenant.request",
	spHandoff:       "stablelog.async.handoff",
	spFlush:         "stablelog.async.flush",
	spBase:          "bench.base",
	spSample:        "bench.sample",
	spFSWrite:       "stablelog.fs.write",
	spFSSync:        "stablelog.fs.fsync",
	spAck:           "ckpt.session.ack",
	spRestart:       "bench.restart",
	spOpen:          "stablelog.log.open",
	spRecover:       "stablelog.log.recover",
	spBuild:         "ckpt.rebuilder.build",
	spMaintain:      "bench.maintain",
	spRetain:        "stablelog.log.retain",
	spRewind:        "stablelog.log.rewind",
}

// span is one recorded interval. epoch is the shared identifier: every span
// an epoch causes, on either thread, carries its number (0 when the span
// belongs to no single epoch).
type span struct {
	kind       spanKind
	start, end int64 // ns since procStart
	epoch      uint64
	parent     int32 // index into tracer.spans, -1 for a root
}

// tracer is the in-memory span buffer of one traced round. Spans arrive from
// the mutator and from the log's writer goroutine, hence the mutex; the
// buffer is preallocated so a traced pass does not grow it.
type tracer struct {
	mu        sync.Mutex
	spans     []span
	root      int32            // current root span
	lastFsync int32            // most recent fsync span: the cause of the acks that follow
	handoff   map[uint64]int32 // epoch → its handoff span, the cause of its writes
}

func newTracer(capacity int) *tracer {
	return &tracer{
		spans:     make([]span, 0, capacity),
		root:      -1,
		lastFsync: -1,
		handoff:   make(map[uint64]int32, capacity/8),
	}
}

// open starts a root span; close ends it. Spans recorded in between are its
// descendants.
func (t *tracer) open(kind spanKind, start int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{kind: kind, start: start, parent: -1})
	t.root = int32(len(t.spans) - 1)
	t.mu.Unlock()
}

func (t *tracer) close(end int64) {
	t.mu.Lock()
	t.spans[t.root].end = end
	t.mu.Unlock()
}

// add records a finished span. Its parent is the span that caused it: the
// epoch's handoff for a write, the covering fsync for an ack, the current
// root otherwise. A write that lands before the mutator has recorded the
// handoff (the writer goroutine may win that race) is re-parented at export.
func (t *tracer) add(kind spanKind, start, end int64, epoch uint64) {
	t.mu.Lock()
	parent := t.root
	switch kind {
	case spFSWrite:
		if h, ok := t.handoff[epoch]; ok {
			parent = h
		}
	case spAck:
		if t.lastFsync >= 0 {
			parent = t.lastFsync
		}
	}
	t.spans = append(t.spans, span{kind: kind, start: start, end: end, epoch: epoch, parent: parent})
	idx := int32(len(t.spans) - 1)
	switch kind {
	case spHandoff:
		t.handoff[epoch] = idx
	case spFSSync:
		t.lastFsync = idx
	}
	t.mu.Unlock()
}

// durations returns the durations of every span of the given kind, in
// recording order.
func (t *tracer) durations(kind spanKind) []int64 {
	var out []int64
	for _, s := range t.spans {
		if s.kind == kind {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// background reports whether spans of this kind run on the log's writer
// goroutine rather than on the mutator.
func (k spanKind) background() bool {
	return k == spFSWrite || k == spFSSync || k == spAck
}

// selfTimes returns each span's duration minus the part of its interval its
// child spans cover. A child on the other thread (a write caused by a
// handoff, an fsync under the pass root) covers none of its parent's time:
// the parent was not waiting for it.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.end - s.start
	}
	for _, s := range t.spans {
		if s.parent < 0 {
			continue
		}
		p := t.spans[s.parent]
		if s.kind.background() != p.kind.background() {
			continue
		}
		lo, hi := max(s.start, p.start), min(s.end, p.end)
		if hi > lo {
			self[s.parent] -= hi - lo
		}
	}
	return self
}

// reconcile returns, for the most recent root of the given kind, its
// duration and its self time — the part of the interval no child span
// accounts for. Every child of a pass or restart root runs on the thread
// that owns the root, back to back, so the self time is exactly the
// untracked remainder the reconciliation gate bounds.
func (t *tracer) reconcile(kind spanKind) (total, untracked int64) {
	self := t.selfTimes()
	for i := len(t.spans) - 1; i >= 0; i-- {
		if s := t.spans[i]; s.kind == kind && s.parent < 0 {
			return s.end - s.start, self[i]
		}
	}
	return 0, 0
}

// fixParents re-parents writes recorded before their epoch's handoff span.
func (t *tracer) fixParents() {
	for i, s := range t.spans {
		if s.kind != spFSWrite {
			continue
		}
		if h, ok := t.handoff[s.epoch]; ok && s.parent >= 0 && t.spans[s.parent].kind != spHandoff {
			t.spans[i].parent = h
		}
	}
}

// traceFile is the on-disk form of a traced round: span rows are
// [name index, start ns, end ns, parent row or -1, epoch, self ns].
type traceFile struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Names    []string   `json:"names"`
	Columns  []string   `json:"columns"`
	Spans    [][6]int64 `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	t.fixParents()
	self := t.selfTimes()
	tf := traceFile{
		Workload: workload,
		Seed:     seed,
		Names:    spanNames[:],
		Columns:  []string{"name", "start_ns", "end_ns", "parent", "epoch", "self_ns"},
		Spans:    make([][6]int64, len(t.spans)),
	}
	for i, s := range t.spans {
		tf.Spans[i] = [6]int64{int64(s.kind), s.start, s.end, int64(s.parent), int64(s.epoch), self[i]}
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
