package main

import (
	"sync"
	"sync/atomic"

	"ickpt/ckpt"
)

// pass records one timed pass of a workload from the mutator's side: the
// pause of every checkpoint request (always) and the spans that decompose it
// (traced rounds only). A workload's loop calls ask when the application
// wants a checkpoint, folded when the body is encoded, and resume when the
// application runs again.
type pass struct {
	tr       *tracer  // nil in untraced rounds
	foldKind spanKind // which layer the workload's fold span belongs to

	pauses []int64 // ns, one per checkpoint request
	epochs int     // checkpoints taken (for tenants: folds, set after the pass)
	marks  int     // write barriers fired by the workload's steps
	epoch  uint64  // epoch of the request in flight

	stepT, askT, foldT int64

	// Queue depths, sampled once per epoch in traced rounds; they depend on
	// thread timing, so they are not exact for a seed.
	acks                    *ackTap
	inFlightMax, pendingMax int64

	// Base work interleaved into the pass (suspend/resumeClock): its wall
	// and CPU time are taken off the pass's, and it is the base side of
	// overhead_pct.
	susT, susCPU  int64
	offNs, offCPU int64
	baseNs        int64
	baseEpochs    int

	// cutAt, when positive, is the epoch count at which cut runs: the
	// instant of the power cut the durability check simulates.
	cutAt int
	cut   func()
}

func newPass(tr *tracer, foldKind spanKind, capacity int) *pass {
	return &pass{tr: tr, foldKind: foldKind, pauses: make([]int64, 0, capacity)}
}

// begin marks the start of the pass: the first step starts now.
func (p *pass) begin() int64 {
	p.stepT = nowNs()
	return p.stepT
}

// ask ends the current step: the application asks for checkpoint epoch.
func (p *pass) ask(epoch uint64) {
	t := nowNs()
	if p.tr != nil {
		p.tr.add(spStep, p.stepT, t, epoch)
	}
	p.askT, p.foldT, p.epoch = t, t, epoch
}

// folded marks the body complete: what follows is the handoff to the log.
func (p *pass) folded() {
	if p.tr != nil {
		p.foldT = nowNs()
	}
}

// resume ends the checkpoint request: the application runs again.
func (p *pass) resume() {
	t := nowNs()
	p.pauses = append(p.pauses, t-p.askT)
	if p.tr != nil {
		p.tr.add(p.foldKind, p.askT, p.foldT, p.epoch)
		p.tr.add(spHandoff, p.foldT, t, p.epoch)
	}
	p.epochs++
	p.settle(t)
}

// settle runs the benchmark's own per-epoch side work — the power-cut note
// and, in traced rounds, the queue-depth samples — after the epoch that
// ended at t, and starts the next step's clock. A traced round books the
// side work as a span of its own, so it is neither the application's time
// nor unaccounted for.
func (p *pass) settle(t int64) {
	if p.cutAt > 0 && p.epochs >= p.cutAt {
		p.cut()
		p.cutAt = 0
	}
	p.stepT = t
	if p.tr == nil {
		return
	}
	if p.acks != nil {
		p.inFlightMax = max(p.inFlightMax, p.acks.inFlight())
		p.pendingMax = max(p.pendingMax, int64(p.acks.sess.Pending()))
	}
	p.stepT = nowNs()
	p.tr.add(spSample, t, p.stepT, p.epoch)
}

// suspend stops the pass's clocks: what runs until resumeClock is not the
// checkpointed pass's work but base work the workload interleaves with it —
// the same job again without checkpoints — so that both sides of
// overhead_pct meet the same moments of a noisy machine.
func (p *pass) suspend() {
	p.susT, p.susCPU = nowNs(), cpuNs()
	if p.tr != nil && p.susT > p.stepT {
		p.tr.add(spStep, p.stepT, p.susT, 0)
	}
}

// resumeClock ends a suspension that ran epochs epochs' worth of base work.
func (p *pass) resumeClock(epochs int) {
	t := nowNs()
	p.offNs += t - p.susT
	p.offCPU += cpuNs() - p.susCPU
	p.baseNs += t - p.susT
	p.baseEpochs += epochs
	if p.tr != nil {
		p.tr.add(spBase, p.susT, t, 0)
	}
	p.stepT = t
}

// flush wraps a blocking flush of the log (the pass's closing Flush, or a
// tenant step's) as a span of the mutator's time.
func (p *pass) flush(fn func() error) error {
	t0 := nowNs()
	if p.tr != nil && t0 > p.stepT {
		// Whatever ran since the last resume (an analysis job's tail, the
		// loop's exit) is application time.
		p.tr.add(spStep, p.stepT, t0, 0)
	}
	err := fn()
	t1 := nowNs()
	if p.tr != nil {
		p.tr.add(spFlush, t0, t1, 0)
	}
	p.stepT = t1
	return err
}

// Indices into counts: the exact work counters the layers expose through
// their public Stats, plus the ones the benchmark keeps at the seams.
const (
	cDirty = iota
	cTrackerForcedFull
	cTrackerDegraded
	cVisited
	cRecorded
	cSkipped
	cDeltas
	cBodyBytes
	cRawBytes
	cFullFolds
	cFullFoldNs
	cShadowWins
	cShadowLosses
	cShadowSkipped
	cShadowEntries
	cCommits
	cAborts
	cRemarked
	cUnresolved
	cSessionForcedFull
	cSessionPending
	cTenantFolds
	cTenantFullFolds
	cTenantCoalesced
	cTenantShed
	cTenantAborted
	cTenantRetried
	cTenantBytes
	cAcked
	cDropped
	cRetried
	nCounts
)

// counts is a snapshot of the layer counters; a pass's share is the
// difference of the snapshots around it.
type counts [nCounts]int64

func (a counts) sub(b counts) counts {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

func (c *counts) addStats(st ckpt.Stats) {
	c[cVisited] += int64(st.Visited)
	c[cRecorded] += int64(st.Recorded)
	c[cSkipped] += int64(st.Skipped)
	c[cDeltas] += int64(st.Deltas)
	c[cBodyBytes] += int64(st.Bytes)
}

func (c *counts) addSession(s *ckpt.Session) {
	st := s.Stats()
	c[cCommits] += int64(st.Commits)
	c[cAborts] += int64(st.Aborts)
	c[cRemarked] += int64(st.Remarked)
	c[cUnresolved] += int64(st.Unresolved)
	c[cSessionForcedFull] += int64(st.ForcedFull)
	c[cSessionPending] += int64(s.Pending())
}

// ackTap is the durability seam: the callback handed to stablelog.WithAck.
// It forwards every acknowledgement to the session and keeps what the
// benchmark needs to judge it — how many epochs were acked and failed, how
// long the callback ran, how far behind the submit each ack arrived, and
// how much of the log file an fsync had covered when it fired.
type ackTap struct {
	sess *ckpt.Session
	fs   *countFS
	path string

	acked  atomic.Int64
	failed atomic.Int64
	cbNs   atomic.Int64

	mu        sync.Mutex
	submitted []int64 // ns timestamp of each epoch's submit, indexed by epoch
	lagNs     []int64 // submit → ack, one per acked epoch
	syncedAt  []int64 // durable prefix length of the log when epoch was acked
	tr        *tracer
}

func newAckTap(sess *ckpt.Session, fs *countFS, path string, capacity int) *ackTap {
	return &ackTap{
		sess: sess, fs: fs, path: path,
		submitted: make([]int64, 1, capacity+1),
		lagNs:     make([]int64, 0, capacity),
		syncedAt:  make([]int64, 1, capacity+1),
	}
}

// submit notes that epoch is about to be handed to the log. Epochs are
// submitted in order starting at 1.
func (a *ackTap) submit(epoch uint64) {
	a.mu.Lock()
	for uint64(len(a.submitted)) <= epoch {
		a.submitted = append(a.submitted, 0)
		a.syncedAt = append(a.syncedAt, -1)
	}
	a.submitted[epoch] = nowNs()
	a.mu.Unlock()
}

// ack has the signature stablelog.WithAck wants.
func (a *ackTap) ack(epoch uint64, err error) {
	t0 := nowNs()
	a.sess.Ack(epoch, err)
	t1 := nowNs()
	a.cbNs.Add(t1 - t0)
	if err != nil {
		a.failed.Add(1)
		return
	}
	synced := a.fs.syncedLen(a.path)
	a.mu.Lock()
	if epoch < uint64(len(a.submitted)) {
		a.lagNs = append(a.lagNs, t0-a.submitted[epoch])
		a.syncedAt[epoch] = synced
	}
	tr := a.tr
	a.mu.Unlock()
	a.acked.Add(1)
	if tr != nil {
		tr.add(spAck, t0, t1, epoch)
	}
}

// trace makes the tap record an ack span per acknowledgement (nil: none).
func (a *ackTap) trace(tr *tracer) {
	a.mu.Lock()
	a.tr = tr
	a.mu.Unlock()
}

// inFlight is the number of epochs submitted and not yet acknowledged.
func (a *ackTap) inFlight() int64 {
	a.mu.Lock()
	n := int64(len(a.submitted) - 1)
	a.mu.Unlock()
	return n - a.acked.Load() - a.failed.Load()
}
