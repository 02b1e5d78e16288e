package tenant

import (
	"errors"
	"sync"

	"ickpt/ckpt"
)

// ErrNotInitialized is returned by Request/TryRequest before Init.
var ErrNotInitialized = errors.New("tenant: not initialized")

// ErrClosed is returned by requests against a closed Manager.
var ErrClosed = errors.New("tenant: manager closed")

// WireEpoch composes a tenant id and a tenant-local epoch into the epoch
// recorded on the shared log: tenantID<<32 | localEpoch. Local epochs are
// limited to 32 bits — at one checkpoint per second that is 136 years per
// tenant.
func WireEpoch(id uint32, local uint64) uint64 {
	return uint64(id)<<32 | (local & 0xFFFFFFFF)
}

// SplitEpoch decomposes a wire epoch into tenant id and local epoch.
func SplitEpoch(wire uint64) (id uint32, local uint64) {
	return uint32(wire >> 32), wire & 0xFFFFFFFF
}

// Stats counts one tenant's checkpoint outcomes over its lifetime.
type Stats struct {
	// Folds counts bodies encoded and submitted (both modes).
	Folds uint64
	// FullFolds counts the subset of Folds taken in Full mode — initial
	// anchors, degradation recoveries, and shed re-anchors.
	FullFolds uint64
	// Acked counts epochs acknowledged durable; Aborted counts epochs
	// aborted (failed folds, failed submissions, failed or stranded
	// writes). Acked+Aborted converges on Folds once the log drains.
	Acked   uint64
	Aborted uint64
	// Retried counts retry folds enqueued after a fold failure aborted the
	// epoch and re-marked its dirty set. Retries bypass the admission bound.
	// Write failures are not retried: an error acknowledgement means the
	// shared writer's error went sticky, so the tenant degrades to Full for
	// the next healthy writer instead.
	Retried uint64
	// Shed counts TryRequest admissions refused by a full queue. A shed
	// drops no epoch — the dirty set keeps accumulating — but degrades the
	// tenant to a Full checkpoint at its next admitted fold.
	Shed uint64
	// Coalesced counts requests that were no-ops: the tenant was already
	// queued, or had nothing to checkpoint.
	Coalesced uint64
	// Bytes counts body bytes encoded (headers included).
	Bytes uint64
}

// Tenant is one isolated checkpoint domain inside a Manager: its own id
// space, dirty index, and epoch session, multiplexed onto the manager's
// shared worker pool and log. Create tenants with Manager.Tenant, then Init
// them with their domain and roots before requesting folds.
//
// All methods are safe for concurrent use; see the package comment for the
// locking contract application mutators must follow (Update).
type Tenant struct {
	id uint32
	m  *Manager

	mu        sync.Mutex
	tracker   *ckpt.Tracker
	session   *ckpt.Session
	wr        *ckpt.Writer // attached to session; t.mu serialises its folds
	roots     []ckpt.Checkpointable
	emit      ckpt.EmitOne
	epoch     uint64 // local; wire epochs add the tenant id
	forceFull bool
	queued    bool // a request is pending in the manager's queue (coalescing)
	stats     Stats
}

// ID returns the tenant id.
func (t *Tenant) ID() uint32 { return t.id }

// Init attaches the tenant's domain and roots: a fresh Tracker is attached
// to the domain as its write barrier, the roots are watched, and a Session
// (resolving aborts through the tracker) becomes the epoch authority of the
// tenant's writer. The tenant starts degraded-to-Full — its first fold is the Full anchor its
// recovery chain needs.
//
// emit, when non-nil, is the engine-specific per-object incremental encoder
// (a specialized plan or generated routine); nil selects the generic
// virtual-dispatch path.
func (t *Tenant) Init(domain *ckpt.Domain, emit ckpt.EmitOne, roots ...ckpt.Checkpointable) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := ckpt.NewTracker()
	if err := tr.Watch(roots...); err != nil {
		return err
	}
	if domain != nil {
		domain.AttachTracker(tr)
	}
	t.tracker = tr
	t.session = ckpt.NewSession(ckpt.WithInfoResolver(tr.Resolve))
	t.wr = ckpt.NewWriter(ckpt.WithSession(t.session))
	t.roots = roots
	t.emit = emit
	t.forceFull = true
	return nil
}

// Update runs fn with exclusive access to the tenant's state: no fold or
// acknowledgement of this tenant runs concurrently, so fn may mutate
// tracked objects (marking them through the domain's write barrier) without
// racing the tracker. Folds of other tenants are unaffected.
func (t *Tenant) Update(fn func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fn()
}

// Stats returns a snapshot of the tenant's counters.
func (t *Tenant) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// Session exposes the tenant's epoch session (pending counts, degradation)
// for tests and monitoring.
func (t *Tenant) Session() *ckpt.Session {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.session
}

// Request asks the manager to checkpoint this tenant, blocking while the
// admission queue is full — backpressure, not loss. A request for a tenant
// that is already queued, or has nothing to checkpoint (no dirty objects,
// no pending Full anchor), coalesces into a no-op.
func (t *Tenant) Request() error {
	return t.request(true)
}

// TryRequest is Request without the blocking: a full admission queue sheds
// the request instead. The shed is counted (Stats.Shed) and the tenant is
// degraded to a Full checkpoint at its next admitted fold; no epoch is
// dropped — the dirty set keeps accumulating until a fold is admitted.
// It reports whether the request was admitted (coalesced no-ops count as
// admitted: the work is already covered).
func (t *Tenant) TryRequest() (bool, error) {
	err := t.request(false)
	if errors.Is(err, errShed) {
		return false, nil
	}
	return err == nil, err
}

// errShed is the internal TryRequest refusal marker.
var errShed = errors.New("tenant: admission queue full")

func (t *Tenant) request(block bool) error {
	t.mu.Lock()
	if t.tracker == nil {
		t.mu.Unlock()
		return ErrNotInitialized
	}
	need := t.tracker.Dirty() > 0 || t.forceFull || t.tracker.Degraded() || t.session.Degraded()
	if !need || t.queued {
		t.stats.Coalesced++
		t.mu.Unlock()
		return nil
	}
	t.queued = true
	t.mu.Unlock()

	err := t.m.admit(t, block, false)
	if err != nil {
		t.mu.Lock()
		t.queued = false
		if errors.Is(err, errShed) {
			t.stats.Shed++
			t.forceFull = true
		}
		t.mu.Unlock()
	}
	return err
}

// retryRequest re-queues a fold after a fold failure re-marked the epoch's
// dirty set. Retries bypass the admission bound: every worker could be blocked in
// a producer role, so a bounded retry would deadlock the pool against
// itself; and the work is not new — the epoch was already admitted once.
func (t *Tenant) retryRequest() {
	t.mu.Lock()
	if t.queued {
		t.mu.Unlock()
		return
	}
	t.queued = true
	t.stats.Retried++
	t.mu.Unlock()
	if err := t.m.admit(t, false, true); err != nil {
		// Manager closed: the abort already re-marked the state; the next
		// process's Full anchor recaptures it.
		t.mu.Lock()
		t.queued = false
		t.mu.Unlock()
	}
}

// runFold executes one checkpoint of the tenant on the calling worker: pick
// the mode (degradations and shed re-anchors force Full), reserve a
// log-owned buffer, encode into it zero-copy with the tenant's writer — whose
// Finish hands the epoch to the session, or aborts it — and submit. Failures
// recycle the reservation and schedule a retry; the abort has re-marked the
// cleared flags and re-enqueued the dirty set.
func (t *Tenant) runFold() {
	t.mu.Lock()
	if t.tracker == nil {
		t.mu.Unlock()
		return
	}
	mode := t.session.NextMode(t.tracker.NextMode(ckpt.Incremental))
	if t.forceFull {
		mode = ckpt.Full
	}
	if mode == ckpt.Incremental && t.tracker.Dirty() == 0 {
		// Raced to clean (an abort retried, then the original request also
		// drained, say): nothing to encode.
		t.stats.Coalesced++
		t.mu.Unlock()
		return
	}
	t.epoch++
	we := WireEpoch(t.id, t.epoch)
	enc := t.m.aw.Reserve()
	t.wr.SwapEncoder(enc)
	t.wr.StartAt(mode, we)
	if mode == ckpt.Full {
		for _, r := range t.roots {
			if t.wr.Checkpoint(r) != nil {
				break
			}
		}
	} else {
		// CheckpointDirty re-enqueues the un-emitted tail itself on error.
		t.wr.CheckpointDirty(t.tracker, t.emit)
	}
	// Both fold steps record their first error in the writer, so Finish
	// alone decides: it aborts a failed epoch through the session and hands
	// a complete one to it.
	if _, _, err := t.wr.Finish(); err != nil {
		t.stats.Aborted++
		t.mu.Unlock()
		t.m.aw.Recycle(enc)
		t.retryRequest()
		return
	}
	t.stats.Folds++
	t.stats.Bytes += uint64(enc.Len())
	if mode == ckpt.Full {
		t.stats.FullFolds++
		// The Full body recaptured everything live; re-arm the dirty index
		// over the current graph. A Watch failure leaves forceFull set, so
		// the next fold anchors again.
		if err := t.tracker.Watch(t.roots...); err == nil {
			t.forceFull = false
		}
	}
	t.mu.Unlock()

	// Submit outside the tenant lock: a full log queue blocks here until
	// acknowledgements drain it, and those acks need tenant locks.
	if err := t.m.aw.Submit(mode, we, enc); err != nil {
		// Submit fails only when the shared writer is closed or its error has
		// gone sticky — the log is dead, so a retry fold would just fail the
		// same way. Abort (re-marking the cleared flags) and degrade to Full:
		// the next writer's anchor recaptures everything.
		t.mu.Lock()
		t.session.Abort(we)
		t.stats.Aborted++
		t.forceFull = true
		t.mu.Unlock()
	}
}

// ack resolves one of the tenant's epochs from the log's acknowledgement
// mux: commit on durable write, abort — re-marking the epoch's cleared
// flags back into the dirty index — otherwise. An error acknowledgement is
// only delivered once the AsyncWriter's error has gone sticky (transient
// failures are absorbed by its retry policy), so the tenant does not retry
// the fold against the dead log; it degrades to Full so the next healthy
// writer's anchor recaptures the re-marked state.
func (t *Tenant) ack(wire uint64, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.session == nil {
		return
	}
	t.session.Ack(wire, err)
	if err == nil {
		t.stats.Acked++
		return
	}
	t.stats.Aborted++
	t.forceFull = true
}
