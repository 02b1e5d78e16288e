package ckpt_test

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"ickpt/ckpt"
	"ickpt/ckpt/parfold"
	"ickpt/ckpt/tenant"
	"ickpt/stablelog"
	"ickpt/wire"
)

// One lifecycle, four drivers. Every way of driving an epoch — the
// sequential Writer, the parallel Folder inline and sharded, the tenant
// service — ends a fold through the same ckpt.Settle. This test runs one
// schedule through each of them, with and without a caller's session, with
// and without delta encoding, ending the faulted epoch in every way an epoch
// can end, and demands the same observable state from all: the same bodies
// byte for byte (the body after the fault lists exactly the re-marked
// objects), the same session counters, the same shadow cache.

const lifeFloor = 64 // shadow-cache size floor: lifeWorld's small objects sit below it

var errLifeTrip = errors.New("lifecycle: injected fold failure")

// lifeObj is a blob whose Fold fails once when armed — after its own record
// was framed and its flag cleared, the mid-traversal failure that dooms a
// body.
type lifeObj struct {
	blob
	fail error
}

func (o *lifeObj) Fold(*ckpt.Writer) error {
	err := o.fail
	o.fail = nil
	return err
}

// lifeEmit is the dirty-fold twin of that failure for the tenant driver,
// whose incremental epochs drain a tracker instead of traversing.
func lifeEmit(em *ckpt.Emitter, o ckpt.Checkpointable) error {
	em.EmitIfModified(o)
	return o.Fold(nil)
}

// lifeWorld is twelve leaf objects above the shadow floor plus two below it,
// all roots, in ascending id order — so a traversal's incremental body and a
// dirty drain's are the same bytes.
type lifeWorld struct {
	d     *ckpt.Domain
	big   []*lifeObj
	small []*lifeObj
}

func newLifeWorld() *lifeWorld {
	w := &lifeWorld{d: ckpt.NewDomain()}
	for i := 0; i < 12; i++ {
		w.big = append(w.big, &lifeObj{blob: *newBlob(w.d, 256, int64(i))})
	}
	for i := 0; i < 2; i++ {
		w.small = append(w.small, &lifeObj{blob: *newBlob(w.d, 16, int64(100+i))})
	}
	return w
}

func lifeRoots(objs ...[]*lifeObj) []ckpt.Checkpointable {
	var roots []ckpt.Checkpointable
	for _, set := range objs {
		for _, o := range set {
			roots = append(roots, o)
		}
	}
	return roots
}

// victim is the object whose fold fails; mates are the objects the sharded
// folder (4 shards, shard = id mod 4) encodes on the victim's worker before
// reaching it. Dirtying only those keeps the faulted epoch deterministic
// under every driver: which *other* shards had run by the time a failure
// stops the claim loop depends on scheduling.
func (w *lifeWorld) victim() *lifeObj { return w.big[8] }

func (w *lifeWorld) mates() []*lifeObj {
	v := w.victim().info.ID()
	var m []*lifeObj
	for _, o := range w.big {
		if id := o.info.ID(); id < v && id%4 == v%4 {
			m = append(m, o)
		}
	}
	return m
}

// lifeDriver is one way of driving epochs.
type lifeDriver interface {
	// take folds roots in mode as the next epoch. A fold error comes back
	// with the epoch already aborted (or, for the start-over flavour, left
	// for the next take to discard).
	take(mode ckpt.Mode, roots []ckpt.Checkpointable) (epoch uint64, err error)
	// lose is take with the body dying on the way to the sink; ok is false
	// when the driver has no way to learn of that.
	lose(mode ckpt.Mode, roots []ckpt.Checkpointable) (ok bool)
	// ack resolves an epoch as durable, where the schedule decides that.
	ack(epoch uint64)
	// mutate runs fn where the driver allows mutations.
	mutate(fn func())
	// close retires the driver and returns every body it produced.
	close() [][]byte
	// session is the session whose counters the test can see, or nil.
	session() *ckpt.Session
}

type lifeCfg struct {
	session, delta bool
}

func (c lifeCfg) String() string { return fmt.Sprintf("session=%v/delta=%v", c.session, c.delta) }

// parts builds the session and shadow cache the configuration calls for.
func (c lifeCfg) parts() (*ckpt.Session, *ckpt.ShadowCache) {
	var s *ckpt.Session
	var sc *ckpt.ShadowCache
	if c.session {
		s = ckpt.NewSession()
	}
	if c.delta {
		sc = ckpt.NewShadowCache(lifeFloor)
	}
	return s, sc
}

// writerDriver drives a ckpt.Writer. startOver is the flavour that never
// finishes a failed body: the next take's Start finds it and discards it.
type writerDriver struct {
	t         *testing.T
	wr        *ckpt.Writer
	sess      *ckpt.Session
	startOver bool
	bodies    [][]byte
}

func newWriterDriver(t *testing.T, sess *ckpt.Session, cache *ckpt.ShadowCache, startOver bool) *writerDriver {
	var opts []ckpt.WriterOption
	if sess != nil {
		opts = append(opts, ckpt.WithSession(sess))
	}
	opts = append(opts, ckpt.WithShadowCache(cache))
	return &writerDriver{t: t, wr: ckpt.NewWriter(opts...), sess: sess, startOver: startOver}
}

func (d *writerDriver) take(mode ckpt.Mode, roots []ckpt.Checkpointable) (uint64, error) {
	d.wr.Start(mode)
	for _, r := range roots {
		if err := d.wr.Checkpoint(r); err != nil {
			if !d.startOver {
				if _, _, ferr := d.wr.Finish(); !errors.Is(ferr, err) {
					d.t.Fatalf("Finish after a fold error = %v, want it to wrap %v", ferr, err)
				}
			}
			return d.wr.Epoch(), err
		}
	}
	body, _, err := d.wr.Finish()
	if err != nil {
		d.t.Fatalf("Finish: %v", err)
	}
	d.bodies = append(d.bodies, bytes.Clone(body))
	return d.wr.Epoch(), nil
}

func (d *writerDriver) lose(mode ckpt.Mode, roots []ckpt.Checkpointable) bool {
	if d.sess == nil {
		return false // a sessionless body is durable the moment Finish returns it
	}
	epoch, err := d.take(mode, roots)
	if err != nil {
		d.t.Fatalf("take: %v", err)
	}
	d.bodies = d.bodies[:len(d.bodies)-1]
	d.sess.Abort(epoch)
	return true
}

func (d *writerDriver) ack(epoch uint64) {
	if d.sess != nil {
		d.sess.Commit(epoch)
	}
}
func (d *writerDriver) mutate(fn func())       { fn() }
func (d *writerDriver) close() [][]byte        { return d.bodies }
func (d *writerDriver) session() *ckpt.Session { return d.sess }

// folderDriver drives a parfold.Folder over four shards.
type folderDriver struct {
	t       *testing.T
	f       *parfold.Folder
	sess    *ckpt.Session
	sharded bool
	bodies  [][]byte
}

func newFolderDriver(t *testing.T, sess *ckpt.Session, cache *ckpt.ShadowCache, workers int) *folderDriver {
	opts := []parfold.Option{parfold.WithWorkers(workers), parfold.WithShards(4), parfold.WithShadowCache(cache)}
	if sess != nil {
		opts = append(opts, parfold.WithSession(sess))
	}
	return &folderDriver{t: t, f: parfold.NewGeneric(opts...), sess: sess, sharded: workers > 1}
}

func (d *folderDriver) take(mode ckpt.Mode, roots []ckpt.Checkpointable) (uint64, error) {
	body, _, err := d.f.Fold(mode, roots)
	if err == nil {
		d.bodies = append(d.bodies, bytes.Clone(body))
	}
	return d.f.Epoch(), err
}

// deadSink loses every body submitted to it.
type deadSink struct{}

func (deadSink) Reserve() *wire.Encoder { return wire.NewEncoder(0) }
func (deadSink) Submit(ckpt.Mode, uint64, *wire.Encoder) error {
	return errors.New("lifecycle: sink down")
}
func (deadSink) Recycle(*wire.Encoder) {}

func (d *folderDriver) lose(mode ckpt.Mode, roots []ckpt.Checkpointable) bool {
	if _, err := d.f.FoldTo(deadSink{}, mode, roots); err == nil {
		d.t.Fatal("FoldTo into a dead sink succeeded")
	}
	return true
}

func (d *folderDriver) ack(epoch uint64) {
	if d.sess != nil {
		d.sess.Commit(epoch)
	}
}
func (d *folderDriver) mutate(fn func()) { fn() }

func (d *folderDriver) close() [][]byte {
	d.f.Release()
	if got := d.f.Spawned() > 0; got != d.sharded {
		d.t.Fatalf("folder spawned goroutines = %v, want %v", got, d.sharded)
	}
	return d.bodies
}
func (d *folderDriver) session() *ckpt.Session { return d.sess }

// tenantDriver drives tenant 0 of a one-worker tenant.Manager over a real
// log (tenant 0's wire epochs equal its local ones, so its bodies are
// comparable byte for byte). The tenant picks its own modes — Full anchor,
// then incremental — acks itself through the log, and retries a failed fold
// on its own, so take reports the failure and the take that follows stands
// for the retry that already ran. (Its epochs need no ack: take returns 0.)
type tenantDriver struct {
	t       *testing.T
	lg      *stablelog.Log
	m       *tenant.Manager
	tn      *tenant.Tenant
	retried bool
}

func newTenantDriver(t *testing.T, w *lifeWorld) *tenantDriver {
	lg, err := stablelog.Create(filepath.Join(t.TempDir(), "life.log"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lg.Close() })
	m := tenant.NewManager(lg, tenant.WithWorkers(1), tenant.WithSyncEvery(1))
	tn := m.Tenant(0)
	if err := tn.Init(w.d, lifeEmit, lifeRoots(w.big, w.small)...); err != nil {
		t.Fatal(err)
	}
	return &tenantDriver{t: t, lg: lg, m: m, tn: tn}
}

func (d *tenantDriver) take(ckpt.Mode, []ckpt.Checkpointable) (uint64, error) {
	if d.retried {
		d.retried = false
		return 0, nil
	}
	before := d.tn.Stats()
	if err := d.tn.Request(); err != nil {
		d.t.Fatal(err)
	}
	if err := d.m.Flush(); err != nil {
		d.t.Fatal(err)
	}
	after := d.tn.Stats()
	if after.Aborted > before.Aborted {
		d.retried = after.Retried > before.Retried
		return 0, errLifeTrip
	}
	return 0, nil
}

func (d *tenantDriver) lose(ckpt.Mode, []ckpt.Checkpointable) bool { return false }
func (d *tenantDriver) ack(uint64)                                 {}
func (d *tenantDriver) mutate(fn func())                           { d.tn.Update(fn) }

func (d *tenantDriver) close() [][]byte {
	if err := d.m.Close(); err != nil {
		d.t.Fatal(err)
	}
	var bodies [][]byte
	for _, seg := range d.lg.Segments() {
		b, err := d.lg.Read(seg.Seq)
		if err != nil {
			d.t.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	return bodies
}
func (d *tenantDriver) session() *ckpt.Session { return d.tn.Session() }

// lifeOutcome is everything observable once a schedule has run.
type lifeOutcome struct {
	bodies [][]byte
	sess   ckpt.SessionStats
	shadow struct {
		len   int
		stats ckpt.ShadowStats
		bases map[uint64][]byte
	}
	flagsLeft []uint64 // ids still modified at the end
}

func observe(d lifeDriver, w *lifeWorld, cache *ckpt.ShadowCache) lifeOutcome {
	var o lifeOutcome
	o.bodies = d.close()
	if s := d.session(); s != nil {
		o.sess = s.Stats()
	}
	all := append(slices.Clone(w.big), w.small...)
	if cache != nil {
		o.shadow.len, o.shadow.stats = cache.Len(), cache.Stats()
		o.shadow.bases = make(map[uint64][]byte)
		for _, x := range all {
			o.shadow.bases[x.info.ID()] = cache.CommittedBase(x.info.ID())
		}
	}
	for _, x := range all {
		if x.info.Modified() {
			o.flagsLeft = append(o.flagsLeft, x.info.ID())
		}
	}
	return o
}

// bodyIDs lists the record ids of a body, in order.
func bodyIDs(t *testing.T, body []byte) []uint64 {
	t.Helper()
	var ids []uint64
	if _, err := ckpt.InspectBodyKinds(body, func(id uint64, _ ckpt.TypeID, _ byte, _ []byte) error {
		ids = append(ids, id)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ids
}

// fault is how the schedule's third epoch ends.
type fault int

const (
	faultNone  fault = iota // the body is durable
	faultFold               // a fold step fails mid-body
	faultSink               // the finished body dies on the way to the sink
	faultPrune              // no fault: a Full epoch over a world whose big objects died
)

func (f fault) String() string {
	return [...]string{"commit", "fold-error", "sink-failure", "full-prunes"}[f]
}

// runLifeSchedule drives: a Full anchor; an incremental epoch; the epoch
// under test, dirtying the victim and its shard mates; and one more
// incremental epoch, which must recapture exactly what a fault lost. It
// reports false when the driver cannot express the fault.
func runLifeSchedule(t *testing.T, d lifeDriver, w *lifeWorld, f fault) bool {
	t.Helper()
	all := lifeRoots(w.big, w.small)
	good := func(mode ckpt.Mode, roots []ckpt.Checkpointable) {
		t.Helper()
		epoch, err := d.take(mode, roots)
		if err != nil {
			t.Fatalf("take: %v", err)
		}
		d.ack(epoch)
	}
	good(ckpt.Full, all)
	d.mutate(func() { w.big[1].poke(3); w.big[6].poke(5); w.small[0].poke(1) })
	good(ckpt.Incremental, all)

	if f == faultPrune {
		good(ckpt.Full, lifeRoots(w.small))
		return true
	}
	lost := append(w.mates(), w.victim())
	d.mutate(func() {
		for i, o := range lost {
			o.poke(7 + i)
		}
	})
	switch f {
	case faultNone:
		good(ckpt.Incremental, all)
		d.mutate(func() { w.big[0].poke(9) })
	case faultFold:
		d.mutate(func() { w.victim().fail = errLifeTrip })
		if _, err := d.take(ckpt.Incremental, all); !errors.Is(err, errLifeTrip) {
			t.Fatalf("armed take = %v, want the injected failure", err)
		}
	case faultSink:
		if !d.lose(ckpt.Incremental, all) {
			return false
		}
	}
	good(ckpt.Incremental, all)
	return true
}

func TestOneLifecycleFourDrivers(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	type mk func(*testing.T, *lifeWorld, *ckpt.Session, *ckpt.ShadowCache) lifeDriver
	drivers := []struct {
		name string
		mk   mk
		// own marks a driver that brings its own session and cannot take a
		// shadow cache: it runs once, under session=true/delta=false.
		own bool
	}{
		{"writer", func(t *testing.T, _ *lifeWorld, s *ckpt.Session, c *ckpt.ShadowCache) lifeDriver {
			return newWriterDriver(t, s, c, false)
		}, false},
		{"writer-start-over", func(t *testing.T, _ *lifeWorld, s *ckpt.Session, c *ckpt.ShadowCache) lifeDriver {
			return newWriterDriver(t, s, c, true)
		}, false},
		{"folder-1", func(t *testing.T, _ *lifeWorld, s *ckpt.Session, c *ckpt.ShadowCache) lifeDriver {
			return newFolderDriver(t, s, c, 1)
		}, false},
		{"folder-4", func(t *testing.T, _ *lifeWorld, s *ckpt.Session, c *ckpt.ShadowCache) lifeDriver {
			return newFolderDriver(t, s, c, 4)
		}, false},
		{"tenant", func(t *testing.T, w *lifeWorld, _ *ckpt.Session, _ *ckpt.ShadowCache) lifeDriver {
			return newTenantDriver(t, w)
		}, true},
	}

	for _, delta := range []bool{false, true} {
		for _, f := range []fault{faultNone, faultFold, faultSink, faultPrune} {
			if f == faultPrune && !delta {
				continue // nothing to prune without a cache
			}
			// The reference is the sequential writer under a caller's session;
			// every other driver and configuration must land where it does.
			var ref lifeOutcome
			for _, session := range []bool{true, false} {
				cfg := lifeCfg{session: session, delta: delta}
				for _, drv := range drivers {
					if drv.own && (!session || delta || f == faultPrune) {
						continue
					}
					t.Run(fmt.Sprintf("%s/%s/%s", f, cfg, drv.name), func(t *testing.T) {
						w := newLifeWorld()
						sess, cache := cfg.parts()
						d := drv.mk(t, w, sess, cache)
						if !runLifeSchedule(t, d, w, f) {
							t.Skip("driver cannot observe a lost body")
						}
						got := observe(d, w, cache)
						if len(got.flagsLeft) != 0 {
							t.Errorf("flags still set after the last epoch: %v", got.flagsLeft)
						}
						if ref.bodies == nil {
							checkLifeReference(t, w, f, got)
							ref = got
							return
						}
						if len(got.bodies) != len(ref.bodies) {
							t.Fatalf("%d bodies, reference has %d", len(got.bodies), len(ref.bodies))
						}
						for i := range got.bodies {
							if !bytes.Equal(got.bodies[i], ref.bodies[i]) {
								t.Errorf("body %d differs from the reference writer's", i)
							}
						}
						if d.session() != nil && got.sess != ref.sess {
							t.Errorf("session stats %+v, reference %+v", got.sess, ref.sess)
						}
						if !reflect.DeepEqual(got.shadow, ref.shadow) {
							t.Errorf("shadow cache len=%d stats=%+v, reference len=%d stats=%+v (or a committed base differs)",
								got.shadow.len, got.shadow.stats, ref.shadow.len, ref.shadow.stats)
						}
					})
				}
			}
		}
	}
}

// checkLifeReference pins the reference outcome itself, so the drivers agree
// on the right answer rather than merely with each other.
func checkLifeReference(t *testing.T, w *lifeWorld, f fault, got lifeOutcome) {
	t.Helper()
	last := bodyIDs(t, got.bodies[len(got.bodies)-1])
	var lost []uint64
	for _, o := range append(w.mates(), w.victim()) {
		lost = append(lost, o.info.ID())
	}
	want := ckpt.SessionStats{Epochs: 4, Commits: 4}
	switch f {
	case faultFold, faultSink:
		// The epoch after the fault carries exactly the re-marked objects.
		if !slices.Equal(last, lost) {
			t.Errorf("recapture body lists ids %v, want the re-marked %v", last, lost)
		}
		want = ckpt.SessionStats{Epochs: 4, Commits: 3, Aborts: 1, Remarked: len(lost)}
	case faultPrune:
		want = ckpt.SessionStats{Epochs: 3, Commits: 3}
		if got.shadow.len != 0 {
			t.Errorf("shadow cache holds %d entries after a Full epoch that staged nothing, want 0", got.shadow.len)
		}
	}
	if got.sess != want {
		t.Errorf("session stats %+v, want %+v", got.sess, want)
	}
}

// TestStalePendScheduleEveryDriver replays the schedule behind PR 10's
// stale-pend bug — two epochs in flight and a shrink below the shadow floor
// between them — through every driver that can hold epochs in flight. The
// regrown object must ship in full (its shadow is no longer its latest
// payload in the stream), every driver must produce the same bytes,
// and the stream must rebuild to the live state.
func TestStalePendScheduleEveryDriver(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	var ref [][]byte
	for _, name := range []string{"writer", "folder-1", "folder-4"} {
		t.Run(name, func(t *testing.T) {
			w := newLifeWorld()
			sess, cache := lifeCfg{session: true, delta: true}.parts()
			var d lifeDriver
			switch name {
			case "writer":
				d = newWriterDriver(t, sess, cache, false)
			case "folder-1":
				d = newFolderDriver(t, sess, cache, 1)
			case "folder-4":
				d = newFolderDriver(t, sess, cache, 4)
			}
			all := lifeRoots(w.big, w.small)
			x := w.big[2]
			grown := bytes.Clone(x.data)
			take := func(mode ckpt.Mode) uint64 {
				t.Helper()
				epoch, err := d.take(mode, all)
				if err != nil {
					t.Fatal(err)
				}
				return epoch
			}
			e1 := take(ckpt.Full) // stages x; stays in flight
			x.data = x.data[:8]
			x.info.Mark()
			e2 := take(ckpt.Incremental) // x ships unstaged below the floor: entry staled
			x.data = grown
			x.poke(11)
			e3 := take(ckpt.Incremental) // must not diff against epoch 1's pend
			for _, e := range []uint64{e1, e2, e3} {
				d.ack(e)
			}
			x.poke(12)
			d.ack(take(ckpt.Incremental)) // epoch 3's payload is the base now

			bodies := d.close()
			for i, wantDeltas := range []int{0, 0, 0, 1} {
				info, err := ckpt.InspectBodyKinds(bodies[i], nil)
				if err != nil {
					t.Fatal(err)
				}
				if info.Deltas != wantDeltas {
					t.Errorf("body %d carries %d delta records, want %d", i, info.Deltas, wantDeltas)
				}
			}
			objs := rebuildBlobs(t, bodies)
			if got := objs[x.info.ID()].(*blob).data; !bytes.Equal(got, x.data) {
				t.Error("rebuilt object differs from the live one")
			}
			if ref == nil {
				ref = bodies
				return
			}
			for i := range bodies {
				if !bytes.Equal(bodies[i], ref[i]) {
					t.Errorf("body %d differs from the writer's", i)
				}
			}
		})
	}
}
