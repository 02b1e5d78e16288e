package tenant_test

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"ickpt/ckpt"
	"ickpt/ckpt/tenant"
	"ickpt/internal/difftest"
	"ickpt/internal/synth"
	"ickpt/stablelog"
	"ickpt/wire"
)

func newLog(t *testing.T) *stablelog.Log {
	t.Helper()
	lg, err := stablelog.Create(filepath.Join(t.TempDir(), "tenants.log"))
	if err != nil {
		t.Fatalf("create log: %v", err)
	}
	t.Cleanup(func() { lg.Close() })
	return lg
}

// initSynth builds a small synth workload and Inits tn over it.
func initSynth(t *testing.T, tn *tenant.Tenant, structures int, seed int64) *synth.Workload {
	t.Helper()
	w := synth.Build(synth.Shape{Structures: structures, ListLen: 4, Kind: synth.Ints1})
	if err := w.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := tn.Init(w.Domain, nil, w.Roots()...); err != nil {
		t.Fatalf("init tenant %d: %v", tn.ID(), err)
	}
	_ = seed
	return w
}

// recoveredDump replays one tenant's run out of the shared log and returns
// its canonical rebuild dump.
func recoveredDump(t *testing.T, lg *stablelog.Log, id uint32) []byte {
	t.Helper()
	// Recover exercises the validated atomic path...
	rb := ckpt.NewRebuilder(synth.Registry())
	if err := tenant.Recover(lg, id, rb); err != nil {
		t.Fatalf("recover tenant %d: %v", id, err)
	}
	// ...and the dump comes from the same filtered run.
	run, err := tenant.RecoveryRun(lg, id)
	if err != nil {
		t.Fatalf("recovery run tenant %d: %v", id, err)
	}
	bodies := make([][]byte, len(run))
	for i, seg := range run {
		b, err := lg.Read(seg.Seq)
		if err != nil {
			t.Fatalf("read seq %d: %v", seg.Seq, err)
		}
		bodies[i] = b
	}
	dump, err := difftest.RebuildDump(synth.Registry(), bodies)
	if err != nil {
		t.Fatalf("rebuild dump tenant %d: %v", id, err)
	}
	return dump
}

func liveDump(t *testing.T, w *synth.Workload) []byte {
	t.Helper()
	dump, err := difftest.SnapshotDump(&difftest.Population{Roots: w.Roots()})
	if err != nil {
		t.Fatalf("snapshot dump: %v", err)
	}
	return dump
}

// TestWireEpochRoundTrip pins the composite epoch layout.
func TestWireEpochRoundTrip(t *testing.T) {
	for _, c := range []struct {
		id    uint32
		local uint64
	}{{0, 1}, {1, 1}, {7, 12345}, {1 << 31, 1<<32 - 1}} {
		we := tenant.WireEpoch(c.id, c.local)
		id, local := tenant.SplitEpoch(we)
		if id != c.id || local != c.local {
			t.Fatalf("split(wire(%d,%d)) = (%d,%d)", c.id, c.local, id, local)
		}
	}
}

// TestMultiTenantRoundTrip: several tenants fold interleaved epochs onto one
// shared log; each recovers independently, byte-identical to its live state.
func TestMultiTenantRoundTrip(t *testing.T) {
	lg := newLog(t)
	m := tenant.NewManager(lg, tenant.WithWorkers(2), tenant.WithSyncEvery(4))

	const nTenants = 5
	loads := make([]*synth.Workload, nTenants)
	for i := 0; i < nTenants; i++ {
		tn := m.Tenant(uint32(i + 1))
		loads[i] = initSynth(t, tn, 6+2*i, int64(i))
		if err := tn.Request(); err != nil { // Full anchor
			t.Fatalf("anchor tenant %d: %v", i+1, err)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatalf("flush anchors: %v", err)
	}

	for round := 0; round < 3; round++ {
		for i := 0; i < nTenants; i++ {
			tn := m.Tenant(uint32(i + 1))
			w := loads[i]
			tn.Update(func() { w.MutateEvery(0.3) })
			if err := tn.Request(); err != nil {
				t.Fatalf("round %d tenant %d: %v", round, i+1, err)
			}
		}
		if err := m.Flush(); err != nil {
			t.Fatalf("round %d flush: %v", round, err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// The shared log must actually interleave tenants.
	var switches int
	segs := lg.Segments()
	for i := 1; i < len(segs); i++ {
		a, _ := tenant.SplitEpoch(segs[i-1].Epoch)
		b, _ := tenant.SplitEpoch(segs[i].Epoch)
		if a != b {
			switches++
		}
	}
	if switches < nTenants {
		t.Fatalf("shared log shows %d tenant switches across %d segments — not interleaved", switches, len(segs))
	}

	for i := 0; i < nTenants; i++ {
		id := uint32(i + 1)
		tn := m.Tenant(id)
		st := tn.Stats()
		if st.Folds == 0 || st.Acked != st.Folds || st.Aborted != 0 {
			t.Fatalf("tenant %d stats = %+v, want every fold acked", id, st)
		}
		if p := tn.Session().Pending(); p != 0 {
			t.Fatalf("tenant %d: %d epochs still pending after close", id, p)
		}
		if got, want := recoveredDump(t, lg, id), liveDump(t, loads[i]); !bytes.Equal(got, want) {
			t.Fatalf("tenant %d: recovered state differs from live state", id)
		}
	}
}

// TestBackpressureNotDroppedEpochs: a tiny admission queue under many
// concurrent blocking requests slows producers down instead of losing
// epochs — every requested fold is eventually encoded, written, and acked.
func TestBackpressureNotDroppedEpochs(t *testing.T) {
	lg := newLog(t)
	m := tenant.NewManager(lg,
		tenant.WithWorkers(2), tenant.WithQueueLimit(2), tenant.WithSyncEvery(8))

	const nTenants = 8
	loads := make([]*synth.Workload, nTenants)
	for i := range loads {
		tn := m.Tenant(uint32(i + 1))
		loads[i] = initSynth(t, tn, 4, int64(i))
	}

	var wg sync.WaitGroup
	errs := make(chan error, nTenants)
	for i := 0; i < nTenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tn := m.Tenant(uint32(i + 1))
			w := loads[i]
			for round := 0; round < 6; round++ {
				tn.Update(func() { w.MutateEvery(0.5) })
				if err := tn.Request(); err != nil {
					errs <- fmt.Errorf("tenant %d round %d: %w", i+1, round, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := m.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	for i := 0; i < nTenants; i++ {
		tn := m.Tenant(uint32(i + 1))
		st := tn.Stats()
		if st.Folds == 0 {
			t.Fatalf("tenant %d folded nothing", i+1)
		}
		if st.Acked != st.Folds || st.Aborted != 0 || st.Shed != 0 {
			t.Fatalf("tenant %d stats = %+v: backpressure dropped epochs", i+1, st)
		}
		if p := tn.Session().Pending(); p != 0 {
			t.Fatalf("tenant %d: %d epochs pending", i+1, p)
		}
		if got, want := recoveredDump(t, lg, uint32(i+1)), liveDump(t, loads[i]); !bytes.Equal(got, want) {
			t.Fatalf("tenant %d: recovered state differs under backpressure", i+1)
		}
	}
}

// gate is a Checkpointable whose Fold, once armed, blocks until released, so
// tests can hold a worker busy deterministically. It must be armed explicitly
// because Fold also runs during Watch's registration traversal at Init time.
type gate struct {
	info    ckpt.Info
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *gate) CheckpointInfo() *ckpt.Info    { return &g.info }
func (g *gate) CheckpointTypeID() ckpt.TypeID { return ckpt.TypeIDOf("tenant_test.gate") }
func (g *gate) Record(e *wire.Encoder)        { e.Varint(0) }
func (g *gate) Fold(w *ckpt.Writer) error {
	if g.armed.CompareAndSwap(true, false) {
		g.entered <- struct{}{}
		<-g.release
	}
	return nil
}

// TestFoldsFirstComeFirstServed: the manager folds tenants in the order
// their requests were admitted, whatever their size — a large tenant that
// asked first is not passed over for a small one that asked later.
func TestFoldsFirstComeFirstServed(t *testing.T) {
	lg := newLog(t)
	m := tenant.NewManager(lg, tenant.WithWorkers(1), tenant.WithSyncEvery(1))
	defer m.Close()

	g := &gate{entered: make(chan struct{}, 1), release: make(chan struct{})}
	blocker := m.Tenant(1)
	gd := ckpt.NewDomain()
	g.info = ckpt.NewInfo(gd)
	if err := blocker.Init(gd, nil, g); err != nil {
		t.Fatalf("init blocker: %v", err)
	}
	large, small := m.Tenant(2), m.Tenant(3)
	initSynth(t, large, 20, 1)
	initSynth(t, small, 2, 2)

	// Pin the worker in the blocker's fold, then queue the large tenant's
	// anchor ahead of the small one's.
	g.armed.Store(true)
	if err := blocker.Request(); err != nil {
		t.Fatalf("blocker request: %v", err)
	}
	<-g.entered
	for _, tn := range []*tenant.Tenant{large, small} {
		if err := tn.Request(); err != nil {
			t.Fatalf("tenant %d request: %v", tn.ID(), err)
		}
	}
	close(g.release)
	if err := m.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	var order []uint32
	for _, seg := range lg.Segments() {
		id, _ := tenant.SplitEpoch(seg.Epoch)
		order = append(order, id)
	}
	if want := []uint32{1, 2, 3}; !slices.Equal(order, want) {
		t.Fatalf("segments by tenant = %v, want %v (admission order)", order, want)
	}
}

// TestTryRequestShedsToFull: with the worker pinned and the queue full,
// TryRequest sheds — accounted, no epoch lost — and the shed tenant's next
// admitted fold is a Full re-anchor, while an identical unshed tenant stays
// incremental.
func TestTryRequestShedsToFull(t *testing.T) {
	lg := newLog(t)
	m := tenant.NewManager(lg,
		tenant.WithWorkers(1), tenant.WithQueueLimit(1), tenant.WithSyncEvery(1))
	defer m.Close()

	g := &gate{entered: make(chan struct{}, 1), release: make(chan struct{})}
	blocker := m.Tenant(1)
	gd := ckpt.NewDomain()
	g.info = ckpt.NewInfo(gd)
	if err := blocker.Init(gd, nil, g); err != nil {
		t.Fatalf("init blocker: %v", err)
	}

	shed := m.Tenant(2)
	control := m.Tenant(3)
	wShed := initSynth(t, shed, 5, 2)
	wControl := initSynth(t, control, 5, 3)

	// Anchor the synth tenants while the worker is free.
	for _, tn := range []*tenant.Tenant{shed, control} {
		if err := tn.Request(); err != nil {
			t.Fatalf("anchor: %v", err)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatalf("anchor flush: %v", err)
	}

	// Pin the worker in the blocker's fold, then fill the one-slot queue.
	g.armed.Store(true)
	if err := blocker.Request(); err != nil {
		t.Fatalf("blocker request: %v", err)
	}
	<-g.entered
	shed.Update(func() { wShed.MutateEvery(0.5) })
	control.Update(func() { wControl.MutateEvery(0.5) })
	if err := shed.Request(); err != nil { // fills the queue
		t.Fatalf("queue-filling request: %v", err)
	}
	ok, err := control.TryRequest()
	if err != nil {
		t.Fatalf("try request: %v", err)
	}
	if ok {
		t.Fatal("TryRequest admitted into a full queue")
	}
	close(g.release)

	if err := m.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if st := control.Stats(); st.Shed != 1 {
		t.Fatalf("control shed count = %d, want 1", st.Shed)
	}

	// The shed tenant's dirty state was not lost; its next admitted fold
	// re-anchors with a Full body.
	if err := control.Request(); err != nil {
		t.Fatalf("post-shed request: %v", err)
	}
	if err := m.Flush(); err != nil {
		t.Fatalf("post-shed flush: %v", err)
	}
	if st := control.Stats(); st.FullFolds != 2 {
		t.Fatalf("shed tenant FullFolds = %d, want 2 (anchor + shed re-anchor)", st.FullFolds)
	}
	if st := shed.Stats(); st.FullFolds != 1 {
		t.Fatalf("unshed tenant FullFolds = %d, want 1 (anchor only)", st.FullFolds)
	}
	if got, want := recoveredDump(t, lg, 3), liveDump(t, wControl); !bytes.Equal(got, want) {
		t.Fatal("shed tenant recovered state differs — the shed lost an update")
	}
}

// TestFoldAbortRemarksAndRetries: an emit failure aborts the epoch through
// the tenant's session (re-marking the dirty set) and schedules a retry that
// bypasses admission; the retry recaptures the full state.
func TestFoldAbortRemarksAndRetries(t *testing.T) {
	lg := newLog(t)
	m := tenant.NewManager(lg, tenant.WithWorkers(1), tenant.WithSyncEvery(1))

	tn := m.Tenant(9)
	w := synth.Build(synth.Shape{Structures: 8, ListLen: 4, Kind: synth.Ints1})
	if err := w.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	boom := errors.New("emit boom")
	var failures int
	emit := func(em *ckpt.Emitter, o ckpt.Checkpointable) error {
		if failures < 2 {
			failures++
			return boom
		}
		return ckpt.EmitObject(em, o)
	}
	if err := tn.Init(w.Domain, emit, w.Roots()...); err != nil {
		t.Fatalf("init: %v", err)
	}

	if err := tn.Request(); err != nil { // Full anchor (traversal: emit unused)
		t.Fatalf("anchor: %v", err)
	}
	if err := m.Flush(); err != nil {
		t.Fatalf("anchor flush: %v", err)
	}

	tn.Update(func() { w.MutateEvery(0.6) })
	if err := tn.Request(); err != nil {
		t.Fatalf("request: %v", err)
	}
	if err := m.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	st := tn.Stats()
	if st.Aborted == 0 || st.Retried == 0 {
		t.Fatalf("stats = %+v, want an aborted epoch and a retry", st)
	}
	if p := tn.Session().Pending(); p != 0 {
		t.Fatalf("%d epochs pending after close", p)
	}
	if got, want := recoveredDump(t, lg, 9), liveDump(t, w); !bytes.Equal(got, want) {
		t.Fatal("recovered state differs after abort+retry — re-mark lost updates")
	}
}

// TestRequestCoalesces: duplicate requests for an already-queued tenant and
// requests for a clean tenant are no-ops.
func TestRequestCoalesces(t *testing.T) {
	lg := newLog(t)
	m := tenant.NewManager(lg, tenant.WithWorkers(1), tenant.WithSyncEvery(1))
	defer m.Close()

	g := &gate{entered: make(chan struct{}, 1), release: make(chan struct{})}
	blocker := m.Tenant(1)
	gd := ckpt.NewDomain()
	g.info = ckpt.NewInfo(gd)
	if err := blocker.Init(gd, nil, g); err != nil {
		t.Fatalf("init blocker: %v", err)
	}
	tn := m.Tenant(2)
	w := initSynth(t, tn, 4, 1)

	// Pin the worker so tn's request stays queued.
	g.armed.Store(true)
	if err := blocker.Request(); err != nil {
		t.Fatalf("blocker: %v", err)
	}
	<-g.entered
	tn.Update(func() { w.MutateEvery(0.5) })
	for i := 0; i < 5; i++ {
		if err := tn.Request(); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	close(g.release)
	if err := m.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	st := tn.Stats()
	if st.Folds != 1 {
		t.Fatalf("5 requests while queued produced %d folds, want 1", st.Folds)
	}
	if st.Coalesced < 4 {
		t.Fatalf("coalesced = %d, want >= 4", st.Coalesced)
	}
	// A clean tenant's request is also a no-op.
	before := tn.Stats().Folds
	if err := tn.Request(); err != nil {
		t.Fatalf("clean request: %v", err)
	}
	if err := m.Flush(); err != nil {
		t.Fatalf("clean flush: %v", err)
	}
	if got := tn.Stats().Folds; got != before {
		t.Fatalf("clean tenant folded (%d -> %d folds)", before, got)
	}
}

// TestRestartContinuesEpochs: a manager restarted over a shared log picks
// every tenant's local epochs up after the log's, so the tenant's stream
// stays strictly increasing and every epoch in it rewinds.
func TestRestartContinuesEpochs(t *testing.T) {
	lg := newLog(t)
	w := synth.Build(synth.Shape{Structures: 4, ListLen: 4, Kind: synth.Ints1})
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		m := tenant.NewManager(lg, tenant.WithWorkers(1), tenant.WithSyncEvery(1))
		tn := m.Tenant(3)
		if err := tn.Init(w.Domain, nil, w.Roots()...); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			tn.Update(func() { w.MutateEvery(0.5) })
			if err := tn.Request(); err != nil {
				t.Fatal(err)
			}
			if err := m.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var locals []uint64
	for _, seg := range lg.Segments() {
		_, local := tenant.SplitEpoch(seg.Epoch)
		locals = append(locals, local)
	}
	if want := []uint64{1, 2, 3, 4}; fmt.Sprint(locals) != fmt.Sprint(want) {
		t.Fatalf("local epochs across a restart = %v, want %v", locals, want)
	}
	for _, local := range locals {
		if _, err := lg.RewindTo(ckpt.NewRebuilder(synth.Registry()), tenant.WireEpoch(3, local)); err != nil {
			t.Fatalf("RewindTo(local %d): %v", local, err)
		}
	}
	if got, want := recoveredDump(t, lg, 3), liveDump(t, w); !bytes.Equal(got, want) {
		t.Fatal("recovery after a restart differs from the live graph")
	}
}

// appendEpoch appends one checkpoint of w at a tenant's local epoch, as the
// tenant's fold writes it.
func appendEpoch(t *testing.T, lg *stablelog.Log, w *synth.Workload, id uint32, mode ckpt.Mode, local uint64) {
	t.Helper()
	wr := ckpt.NewWriter()
	wr.StartAt(mode, tenant.WireEpoch(id, local))
	if err := w.CheckpointGeneric(wr); err != nil {
		t.Fatal(err)
	}
	body, _, err := wr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lg.Append(mode, tenant.WireEpoch(id, local), body); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverRestartedNumbering: a manager that did not resume a tenant's
// epochs began them again at 1 on restart, and logs written that way hold
// streams like Full@1, Inc@2, Full@1, Inc@2. Such a stream's latest run is
// coherent, so it recovers — through tenant.Recover and, on a one-stream
// log, through Log.Recover alike — and the epochs since the restart rewind.
func TestRecoverRestartedNumbering(t *testing.T) {
	for _, ids := range [][]uint32{{7}, {7, 9}} {
		lg := newLog(t)
		loads := make(map[uint32]*synth.Workload)
		for i, id := range ids {
			loads[id] = synth.Build(synth.Shape{Structures: 4 + i, ListLen: 3, Kind: synth.Ints1})
		}
		for restart := 0; restart < 2; restart++ {
			for local, mode := range []ckpt.Mode{ckpt.Full, ckpt.Incremental} {
				for _, id := range ids {
					loads[id].MutateEvery(0.5)
					appendEpoch(t, lg, loads[id], id, mode, uint64(local+1))
				}
			}
		}
		for _, id := range ids {
			if got, want := recoveredDump(t, lg, id), liveDump(t, loads[id]); !bytes.Equal(got, want) {
				t.Fatalf("tenants %v: tenant %d recovered state differs from the live graph", ids, id)
			}
			for local := uint64(1); local <= 2; local++ {
				st, err := lg.RewindTo(ckpt.NewRebuilder(synth.Registry()), tenant.WireEpoch(id, local))
				if err != nil || st.Segments != int(local) {
					t.Fatalf("tenants %v: RewindTo(tenant %d, local %d) = %+v, %v; want the chain since the restart",
						ids, id, local, st, err)
				}
			}
		}
		if len(ids) > 1 {
			continue
		}
		if _, err := lg.EpochIndex(); !errors.Is(err, stablelog.ErrIncoherent) {
			t.Fatalf("EpochIndex over a repeated epoch = %v, want ErrIncoherent", err)
		}
		byTenant, byLog := ckpt.NewRebuilder(synth.Registry()), ckpt.NewRebuilder(synth.Registry())
		if err := tenant.Recover(lg, ids[0], byTenant); err != nil {
			t.Fatal(err)
		}
		if err := lg.Recover(byLog); err != nil {
			t.Fatalf("Log.Recover = %v; tenant.Recover recovered the same stream", err)
		}
		if byLog.Objects() != byTenant.Objects() || byLog.MaxID() != byTenant.MaxID() {
			t.Fatalf("Log.Recover rebuilt %d objects up to id %d, tenant.Recover %d up to %d",
				byLog.Objects(), byLog.MaxID(), byTenant.Objects(), byTenant.MaxID())
		}
	}
}

// TestRecoverNoFull: a tenant with no full anchor on the log fails recovery
// with stablelog.ErrNoFull instead of replaying nonsense.
func TestRecoverNoFull(t *testing.T) {
	lg := newLog(t)
	// Hand-append an incremental-only tenant chain.
	body := []byte{1, byte(ckpt.Incremental)} // minimal framing is irrelevant: filtered run has no Full
	if _, err := lg.Append(ckpt.Incremental, tenant.WireEpoch(5, 1), body); err != nil {
		t.Fatalf("append: %v", err)
	}
	rb := ckpt.NewRebuilder(synth.Registry())
	if err := tenant.Recover(lg, 5, rb); !errors.Is(err, stablelog.ErrNoFull) {
		t.Fatalf("recover = %v, want ErrNoFull", err)
	}
	if ids := tenant.TenantIDs(lg); len(ids) != 1 || ids[0] != 5 {
		t.Fatalf("tenant ids = %v, want [5]", ids)
	}
}

// TestRecoverRejectsBaselessDeltaLikeTheLog: a tenant chain whose delta has
// no base in the run is the same defect as a single-stream chain with one,
// and both replay paths apply their run through the same stablelog replay,
// so both call it ErrIncoherent as well as ErrDeltaBase, and neither leaves
// the rebuilder changed.
func TestRecoverRejectsBaselessDeltaLikeTheLog(t *testing.T) {
	v2 := func(mode ckpt.Mode, epoch uint64, records func(e *wire.Encoder)) []byte {
		e := wire.NewEncoder(128)
		e.Byte(2)
		e.Byte(byte(mode))
		e.Uvarint(epoch)
		if records != nil {
			records(e)
		}
		return e.Bytes()
	}
	base := bytes.Repeat([]byte{7}, 64)
	next := append([]byte(nil), base...)
	next[5] ^= 1
	orphan := v2(ckpt.Incremental, 2, func(e *wire.Encoder) {
		d := wire.NewEncoder(32)
		if !wire.AppendDeltaHashed(d, base, wire.DeltaBaseHash(base), next, len(next)) {
			t.Fatal("delta does not pay")
		}
		e.Uvarint(9) // id: never recorded by the Full below
		e.Uvarint(1)
		e.Byte(wire.KindDelta)
		e.Uvarint(uint64(d.Len()))
		e.Raw(d.Bytes())
	})
	for _, id := range []uint32{0, 5} { // stream 0 is a single-domain log
		lg := newLog(t)
		if _, err := lg.Append(ckpt.Full, tenant.WireEpoch(id, 1), v2(ckpt.Full, 1, nil)); err != nil {
			t.Fatal(err)
		}
		if _, err := lg.Append(ckpt.Incremental, tenant.WireEpoch(id, 2), orphan); err != nil {
			t.Fatal(err)
		}
		rb := ckpt.NewRebuilder(synth.Registry())
		err := tenant.Recover(lg, id, rb)
		if !errors.Is(err, stablelog.ErrIncoherent) || !errors.Is(err, ckpt.ErrDeltaBase) {
			t.Errorf("tenant.Recover(%d) = %v, want ErrIncoherent naming ErrDeltaBase", id, err)
		}
		// A log holding one stream is Log.Recover's, whatever the stream id.
		if lerr := lg.Recover(rb); !errors.Is(lerr, stablelog.ErrIncoherent) || !errors.Is(lerr, ckpt.ErrDeltaBase) {
			t.Errorf("stream %d: Log.Recover = %v, want the same classes as tenant.Recover's %v", id, lerr, err)
		}
		if rb.Objects() != 0 {
			t.Errorf("stream %d: rejected chain left %d objects", id, rb.Objects())
		}
	}
}
