package main

import (
	"fmt"
	"math/rand"
	"path/filepath"

	"ickpt/ckpt"
	"ickpt/ckpt/tenant"
	"ickpt/internal/synth"
	"ickpt/stablelog"
	"ickpt/wire"
)

// tenants: many tiny domains behind the multi-tenant service. Scheduler,
// admission control, the shared worker pool and the interleaved shared log
// do the work; it is the only concurrent fold path and the only read path
// that filters.
type tenants struct{}

func (tenants) name() string { return "tenants" }
func (tenants) why() string {
	return "512 tiny domains behind tenant.Manager, 10% mutated per step: scheduler, admission, shared pool and the interleaved shared log dominate; restart filters the log per tenant"
}
func (tenants) foldKind() spanKind { return spTenantRequest }

type tenantSize struct {
	tenants   int
	perStep   int // tenants mutated per step
	steps     int
	baseSteps int // each half of the base pass
}

const (
	tenantSteps     = 3000
	tenantBaseSteps = 20000
)

func (tenants) size(scale float64) tenantSize {
	n := scaled(512, scale, 20)
	return tenantSize{
		tenants:   n,
		perStep:   max(n/10, 2),
		steps:     scaled(tenantSteps, scale, 12),
		baseSteps: scaled(tenantBaseSteps, scale, 12),
	}
}

func (w tenants) passEpochs(scale float64) int {
	sz := w.size(scale)
	return sz.steps * sz.perStep
}

var (
	tenantShape = synth.Shape{Structures: 2, ListLen: 3, Kind: synth.Ints1}
	tenantMod   = synth.ModPattern{Percent: 50, ModifiableLists: 2}
)

// tenantGraph is the population of tenant domains and the seeded stream of
// steps over them.
type tenantGraph struct {
	sz    tenantSize
	loads []*synth.Workload
	rng   *rand.Rand
}

func newTenantGraph(seed int64, sz tenantSize) *tenantGraph {
	g := &tenantGraph{sz: sz, rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < sz.tenants; i++ {
		g.loads = append(g.loads, synth.Build(tenantShape))
	}
	return g
}

// step picks this step's tenants and mutates each through update (the
// tenant's lock in the checkpointed pass, a plain call in the base pass). It
// returns the picked tenants and the number of write barriers fired.
func (g *tenantGraph) step(update func(i int, fn func())) (picked []int, marks int) {
	picked = g.rng.Perm(g.sz.tenants)[:g.sz.perStep]
	for _, i := range picked {
		w := g.loads[i]
		update(i, func() { marks += w.Mutate(g.rng, tenantMod) })
	}
	return picked, marks
}

func (w tenants) newBase(seed int64, scale float64) (func() (int, error), error) {
	sz := w.size(scale)
	g := newTenantGraph(seed, sz)
	return func() (int, error) {
		for s := 0; s < sz.baseSteps; s++ {
			g.step(func(_ int, fn func()) { fn() })
		}
		// One tenant fold is an epoch; a step asks for perStep of them.
		return sz.baseSteps * sz.perStep, nil
	}, nil
}

// tenantInst drives tenant.NewManager(log, WithSyncEvery(64)) at default
// workers: each step mutates its tenants through Tenant.Update, Requests a
// fold of each (one pause sample per Request) and Flushes.
type tenantInst struct {
	env *env
	sz  tenantSize
	g   *tenantGraph
	log *stablelog.Log
	m   *tenant.Manager
}

func (w tenants) setup(e *env) (instance, error) {
	sz := w.size(e.scale)
	in := &tenantInst{env: e, sz: sz, g: newTenantGraph(e.seed, sz)}
	lg, err := stablelog.Create(filepath.Join(e.dir, logName), stablelog.WithFS(e.fs))
	if err != nil {
		return nil, err
	}
	in.log = lg
	in.m = tenant.NewManager(lg, tenant.WithSyncEvery(64))
	for i, load := range in.g.loads {
		tn := in.m.Tenant(uint32(i + 1))
		if err := tn.Init(load.Domain, nil, load.Roots()...); err != nil {
			return nil, err
		}
		// Every tenant's Full anchor.
		if err := tn.Request(); err != nil {
			return nil, err
		}
	}
	return in, in.m.Flush()
}

func (in *tenantInst) run(p *pass) error {
	before := in.snapshot()[cTenantFolds]
	for s := 0; s < in.sz.steps; s++ {
		picked, marks := in.g.step(func(i int, fn func()) { in.m.Tenant(uint32(i + 1)).Update(fn) })
		p.marks += marks
		p.ask(uint64(s + 1))
		for _, i := range picked {
			t0 := nowNs()
			err := in.m.Tenant(uint32(i + 1)).Request()
			t1 := nowNs()
			if err != nil {
				return fmt.Errorf("step %d tenant %d: %w", s, i+1, err)
			}
			p.pauses = append(p.pauses, t1-t0)
			if p.tr != nil {
				p.tr.add(spTenantRequest, t0, t1, uint64(s+1))
			}
		}
		p.stepT = nowNs()
		if err := p.flush(in.m.Flush); err != nil {
			return fmt.Errorf("step %d flush: %w", s, err)
		}
		p.epochs += len(picked)
		p.settle(p.stepT)
	}
	// A tenant whose mutation touched nothing coalesces into no fold; the
	// pass's epochs are the folds that ran.
	p.epochs = int(in.snapshot()[cTenantFolds] - before)
	return nil
}

func (in *tenantInst) snapshot() counts {
	var c counts
	for i := range in.g.loads {
		tn := in.m.Tenant(uint32(i + 1))
		st := tn.Stats()
		c[cTenantFolds] += int64(st.Folds)
		c[cTenantFullFolds] += int64(st.FullFolds)
		c[cTenantCoalesced] += int64(st.Coalesced)
		c[cTenantShed] += int64(st.Shed)
		c[cTenantAborted] += int64(st.Aborted)
		c[cTenantRetried] += int64(st.Retried)
		c[cTenantBytes] += int64(st.Bytes)
		c.addSession(tn.Session())
	}
	ls := in.m.LogStats()
	c[cAcked] = int64(ls.Acked)
	c[cDropped] = int64(ls.Dropped)
	c[cRetried] = int64(ls.Retried)
	return c
}

func (in *tenantInst) tap() *ackTap           { return nil }
func (in *tenantInst) setupStats() setupStats { return setupStats{} }

func (in *tenantInst) live() [][]ckpt.Checkpointable {
	out := make([][]ckpt.Checkpointable, len(in.g.loads))
	for i, load := range in.g.loads {
		out[i] = load.Roots()
	}
	return out
}

func (in *tenantInst) close() error {
	err := in.m.Close()
	if cerr := in.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// restoreTenant is the point restore a user of the service has:
// tenant.Recover filters the shared log down to one tenant's chain, Build
// materialises it.
func restoreTenant(l *stablelog.Log, id uint32) (map[uint64]ckpt.Restorable, error) {
	rb := ckpt.NewRebuilder(synth.Registry())
	if err := tenant.Recover(l, id, rb); err != nil {
		return nil, err
	}
	return rb.Build(ckpt.NewDomain())
}

// restart is a full service restart: TenantIDs, then Recover + Build for
// every tenant. (tenant.Recover scans the whole interleaved segment list
// once per tenant; the spans attribute all of it to recover, and Build to
// the tenants' share measured separately.)
func (in *tenantInst) restart(l *stablelog.Log, tr *tracer) ([]map[uint64]ckpt.Restorable, restartStats, error) {
	var st restartStats
	t0 := nowNs()
	ids := tenant.TenantIDs(l)
	if len(ids) != in.sz.tenants {
		return nil, st, fmt.Errorf("log holds %d tenants, want %d", len(ids), in.sz.tenants)
	}
	out := make([]map[uint64]ckpt.Restorable, len(ids))
	var buildNs int64
	for k, id := range ids {
		u0 := nowNs()
		rb := ckpt.NewRebuilder(synth.Registry())
		if err := tenant.Recover(l, id, rb); err != nil {
			return nil, st, err
		}
		b0 := nowNs()
		objs, err := rb.Build(ckpt.NewDomain())
		if err != nil {
			return nil, st, err
		}
		u1 := nowNs()
		buildNs += u1 - b0
		st.unitRecoverNs = append(st.unitRecoverNs, u1-u0)
		st.objects += int64(len(objs))
		out[k] = objs
	}
	t1 := nowNs()
	if tr != nil {
		// The per-tenant builds interleave with the recovers; the trace
		// carries them as two back-to-back spans of the same total.
		tr.add(spRecover, t0, t1-buildNs, 0)
		tr.add(spBuild, t1-buildNs, t1, 0)
	}
	st.segments = int64(len(l.Segments()))
	st.bytes = payloadBytes(l.Segments())
	return out, st, nil
}

// maintain: Log.RewindTo is undefined on a shared log (EpochIndex rejects
// the non-monotone interleaved epochs), and so is retention; rewind_p50_ms
// samples the point restore these users have instead — tenant.Recover +
// Build of one seeded tenant on the open log. It also audits every body for
// delta records, which this stack must never produce.
func (in *tenantInst) maintain(l *stablelog.Log, rng *rand.Rand, tr *tracer, check int) (maintStats, error) {
	var st maintStats
	st.rawBytes = payloadBytes(l.Segments())
	st.retainedBytes = st.rawBytes
	// The first segment of every tenant is its setup anchor; the rest is the
	// pass.
	for _, seg := range l.Segments()[in.sz.tenants:] {
		body, err := l.Read(seg.Seq)
		if err != nil {
			return st, err
		}
		if _, err := ckpt.InspectBodyKinds(body, func(_ uint64, _ ckpt.TypeID, kind byte, _ []byte) error {
			st.auditRecords++
			if kind == wire.KindDelta {
				st.auditDeltas++
			}
			return nil
		}); err != nil {
			return st, err
		}
	}
	st.audited = true
	for i := 0; i < rewindSamples; i++ {
		k := rng.Intn(in.sz.tenants)
		t0 := nowNs()
		objs, err := restoreTenant(l, uint32(k+1))
		t1 := nowNs()
		if err != nil {
			return st, err
		}
		if tr != nil {
			tr.add(spRewind, t0, t1, uint64(k+1))
		}
		run, err := tenant.RecoveryRun(l, uint32(k+1))
		if err != nil {
			return st, err
		}
		st.rewindNs = append(st.rewindNs, t1-t0)
		st.rewindSegs = append(st.rewindSegs, int64(len(run)))
		st.rewindBytes = append(st.rewindBytes, payloadBytes(run))
		if i < check {
			want, err := digestRoots(in.g.loads[k].Roots())
			if err != nil {
				return st, err
			}
			st.checks = append(st.checks, rewindCheck{epoch: uint64(k + 1), got: digestRebuilt(objs), want: &want})
		}
	}
	return st, nil
}

func (in *tenantInst) stateAt([]uint64) ([]digest, error) {
	return nil, fmt.Errorf("tenants verify point restores against the live tenants")
}
