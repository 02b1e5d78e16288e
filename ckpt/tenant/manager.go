package tenant

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"ickpt/stablelog"
)

// Option configures a Manager.
type Option interface {
	apply(*Manager)
}

type optionFunc func(*Manager)

func (f optionFunc) apply(m *Manager) { f(m) }

// WithWorkers sets the number of shared fold workers. n <= 0 (the default)
// means runtime.GOMAXPROCS(0). Each worker folds one tenant at a time;
// parallelism is across tenants, with every per-tenant fold running the
// inline sequential path (one tenant's state never folds on two goroutines).
func WithWorkers(n int) Option {
	return optionFunc(func(m *Manager) { m.workers = n })
}

// WithQueueLimit bounds the pending-fold admission queue. When full,
// Tenant.Request blocks (backpressure) and Tenant.TryRequest sheds. n <= 0
// means unbounded (the default). Retry folds bypass the bound.
func WithQueueLimit(n int) Option {
	return optionFunc(func(m *Manager) { m.queueLimit = n })
}

// WithSyncEvery forwards the group-commit count policy to the shared
// AsyncWriter (see stablelog.WithSyncEvery).
func WithSyncEvery(n int) Option {
	return optionFunc(func(m *Manager) { m.syncEvery = n })
}

// WithRetry forwards the transient-I/O retry policy to the shared
// AsyncWriter (see stablelog.WithRetry).
func WithRetry(n int, backoff time.Duration) Option {
	return optionFunc(func(m *Manager) {
		m.retryN = n
		m.retryBackoff = backoff
	})
}

// Manager owns the shared half of the multi-tenant checkpoint service: the
// fold worker pool, the admission queue, and the AsyncWriter
// multiplexing every tenant's epochs onto one log. See the package comment
// for the architecture and locking contract.
type Manager struct {
	log *stablelog.Log
	aw  *stablelog.AsyncWriter

	workers      int
	queueLimit   int
	syncEvery    int
	retryN       int
	retryBackoff time.Duration

	resume map[uint32]uint64 // per tenant, the latest local epoch already in the log

	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[uint32]*Tenant
	// queue holds admitted folds in admission order, served first come,
	// first served. Tenant.queued keeps a tenant in it at most once, so a
	// request waits behind at most one fold per other tenant.
	queue   []*Tenant
	running int // folds currently executing on workers
	closed  bool
	wg      sync.WaitGroup
}

// NewManager starts a manager writing to log. The caller must not use log
// directly until Close returns, and closes log itself afterwards. A manager
// restarted over a log that already holds tenants' segments continues each
// tenant's local epochs after the latest in the log, so every tenant's
// stream keeps strictly increasing epochs and stays rewindable.
func NewManager(log *stablelog.Log, opts ...Option) *Manager {
	m := &Manager{
		log:     log,
		resume:  make(map[uint32]uint64),
		tenants: make(map[uint32]*Tenant),
	}
	for _, seg := range log.Segments() {
		id, local := SplitEpoch(seg.Epoch)
		m.resume[id] = max(m.resume[id], local)
	}
	m.cond = sync.NewCond(&m.mu)
	for _, o := range opts {
		o.apply(m)
	}
	if m.workers <= 0 {
		m.workers = runtime.GOMAXPROCS(0)
	}
	awOpts := []stablelog.AsyncOption{stablelog.WithAck(m.ack)}
	if m.syncEvery > 0 {
		awOpts = append(awOpts, stablelog.WithSyncEvery(m.syncEvery))
	}
	if m.retryN > 0 {
		awOpts = append(awOpts, stablelog.WithRetry(m.retryN, m.retryBackoff))
	}
	m.aw = stablelog.NewAsyncWriter(log, awOpts...)

	m.wg.Add(m.workers)
	for i := 0; i < m.workers; i++ {
		go m.worker()
	}
	return m
}

// Tenant returns the tenant with the given id, creating it on first use.
// The returned tenant must be Init'ed before it can request folds.
func (m *Manager) Tenant(id uint32) *Tenant {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tenants[id]
	if !ok {
		t = &Tenant{id: id, m: m, epoch: m.resume[id]}
		m.tenants[id] = t
	}
	return t
}

// admit enqueues a fold request for t. block selects backpressure (wait for
// space) over shedding (errShed); force bypasses the bound entirely (retry
// folds).
func (m *Manager) admit(t *Tenant, block, force bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !force && m.queueLimit > 0 {
		for len(m.queue) >= m.queueLimit && !m.closed {
			if !block {
				return errShed
			}
			m.cond.Wait()
		}
	}
	if m.closed {
		return ErrClosed
	}
	m.queue = append(m.queue, t)
	m.cond.Broadcast()
	return nil
}

// worker is one shared fold goroutine: pop the longest-waiting tenant, fold
// it, repeat. Workers drain the queue before exiting on Close.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for len(m.queue) == 0 && !m.closed {
			m.cond.Wait()
		}
		if len(m.queue) == 0 {
			m.mu.Unlock()
			return
		}
		t := m.queue[0]
		m.queue = m.queue[1:]
		m.running++
		m.mu.Unlock()

		// Clear the coalescing flag before folding, so a mutation landing
		// mid-fold can request the next epoch instead of being swallowed.
		t.mu.Lock()
		t.queued = false
		t.mu.Unlock()

		t.runFold()

		m.mu.Lock()
		m.running--
		m.cond.Broadcast()
		m.mu.Unlock()
	}
}

// ack is the shared acknowledgement mux: decode the wire epoch's tenant id
// and route to that tenant's session. Runs on the AsyncWriter's background
// goroutine; holds no lock across the tenant call.
func (m *Manager) ack(wire uint64, err error) {
	id, _ := SplitEpoch(wire)
	m.mu.Lock()
	t := m.tenants[id]
	m.mu.Unlock()
	if t == nil {
		return
	}
	t.ack(wire, err)
}

// Flush blocks until every pending fold has executed and every submitted
// body has been written, fsynced (under the sync policy), and acknowledged
// — including retry folds scheduled by fold failures. It returns the shared
// writer's sticky error, if any; a nil return means every tenant's session
// has no epoch pending on the log.
func (m *Manager) Flush() error {
	for {
		m.mu.Lock()
		for (len(m.queue) > 0 || m.running > 0) && !m.closed {
			m.cond.Wait()
		}
		m.mu.Unlock()
		if err := m.aw.Flush(); err != nil {
			return err
		}
		// Acks may have re-marked and retried; only a pass that stays
		// quiet on both sides is a real drain.
		m.mu.Lock()
		quiet := len(m.queue) == 0 && m.running == 0
		m.mu.Unlock()
		if quiet {
			return nil
		}
	}
}

// Close drains pending folds, stops the workers, closes the shared
// AsyncWriter (final group commit included), and returns its first write
// error, if any. The underlying log stays open — the caller owns it.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()

	m.wg.Wait()
	return m.aw.Close()
}

// LogStats returns the shared AsyncWriter's acknowledgement counters —
// the service-wide view the per-tenant Stats break down.
func (m *Manager) LogStats() stablelog.AsyncStats {
	return m.aw.Stats()
}

// String summarizes the manager configuration.
func (m *Manager) String() string {
	return fmt.Sprintf("tenant.Manager{workers:%d queue:%d}", m.workers, m.queueLimit)
}
