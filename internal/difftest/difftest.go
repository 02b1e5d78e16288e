// Package difftest is a differential test harness for the checkpoint
// engines: it replays recorded mutation traces through every engine
// (virtual, reflect, plan, codegen), sequentially and through the parallel
// sharded fold, and asserts that all of them produce equivalent checkpoints.
//
// Equivalence is checked at two levels:
//
//   - byte level: every strategy's body stream is byte-identical to the
//     reference stream (the generic virtual driver folding sequentially in
//     canonical id order) — the repo-wide invariant that specialization and
//     parallelism are strictly optimizations;
//   - rebuild level: ckpt.Rebuilder.Apply over each stream reaches the same
//     object graph as the live population the stream was recorded from.
//
// The harness is reusable: a Trace bundles a deterministic population
// builder with a replayable mutation script and the engine entry points that
// population supports; RunDiff drives the full engine x strategy matrix.
package difftest

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"ickpt/ckpt"
	"ickpt/ckpt/parfold"
	"ickpt/wire"
)

// Take requests one checkpoint of the population's roots: the replay script
// calls it at every point of the trace where the application would
// checkpoint. phase tags the program phase (analysis phase name, "" when the
// workload has only one), selecting phase-specialized engine routines.
type Take func(mode ckpt.Mode, phase string) error

// EngineSpec is one engine's entry points over a population.
type EngineSpec struct {
	// Name identifies the engine: "virtual", "reflect", "plan", "codegen".
	Name string
	// NewFold returns the engine's traversal routine for a checkpoint in the
	// given mode and phase. A nil NewFold — or a nil routine for a
	// particular (mode, phase) — falls back to the generic virtual fold,
	// mirroring production use where specialized routines cover the
	// steady-state phases and the generic driver takes base full
	// checkpoints.
	NewFold func(mode ckpt.Mode, phase string) parfold.FoldFunc
	// NewEmit returns the engine's single-object emit routine for a dirty
	// (mark-queue) checkpoint in the given phase. A nil NewEmit — or a nil
	// routine for a particular phase — falls back to the generic
	// ckpt.EmitObject.
	NewEmit func(phase string) ckpt.EmitOne
}

// Population is a built object graph plus its replayable mutation script.
type Population struct {
	// Roots are the graph's fold roots (disjoint subtrees).
	Roots []ckpt.Checkpointable
	// Domain issued the population's object ids; dirty strategies attach
	// their tracker to it so mid-replay allocations are accounted (nil if
	// the workload never allocates after build).
	Domain *ckpt.Domain
	// Registry resolves the graph's types for rebuilding.
	Registry *ckpt.Registry
	// Replay runs the trace: it applies the scripted mutations and calls
	// take at every checkpoint point, deterministically.
	Replay func(take Take) error
	// Engines lists the engines the population supports.
	Engines []EngineSpec
}

// Trace names a deterministic workload. Build must construct an identical
// population (same ids, same state, same mutation script) on every call, so
// each engine x strategy combination replays the exact same history.
type Trace struct {
	Name  string
	Build func() (*Population, error)
}

// Strategy selects sequential or parallel folding, over the full traversal
// or the tracker's dirty set.
type Strategy struct {
	// Name identifies the strategy in test output.
	Name string
	// Workers <= 0 folds sequentially; otherwise the parallel driver runs
	// with this many workers and Shards shards.
	Workers int
	Shards  int
	// Dirty replays incremental checkpoints through a ckpt.Tracker's
	// mark-queue (Writer.CheckpointDirty / Folder.FoldDirty) instead of a
	// traversal. Dirty bodies order records by ascending id, not traversal
	// order, so they are byte-compared against the dirty sequential
	// reference rather than the traversal reference; rebuild-level
	// equivalence holds across both classes.
	Dirty bool
	// Delta enables payload-delta encoding: a ckpt.ShadowCache shared across
	// the replay's takes (writer- or folder-attached) diffs each payload
	// against the previous committed one and ships patch records. Delta
	// bodies differ byte-wise from plain ones (v2 framing, patch payloads),
	// so each (Dirty, Delta) class has its own sequential byte reference;
	// rebuild-level equivalence against the live graph ties every class to
	// the same ground truth.
	Delta bool
}

// deltaMin is the ShadowCache size floor for delta strategies: zero, so every
// payload is shadowed and the matrix exercises the delta path maximally.
const deltaMin = 0

// Strategies is the standard strategy axis: the sequential reference, a
// parallel configuration with enough workers and a shard count that is
// neither 1 nor a divisor-friendly power of two, and the same pair driven
// by the dirty index.
var Strategies = []Strategy{
	{Name: "sequential"},
	{Name: "parallel", Workers: 4, Shards: 7},
	{Name: "dirty", Dirty: true},
	{Name: "dirty-parallel", Dirty: true, Workers: 4, Shards: 7},
	{Name: "delta", Delta: true},
	{Name: "delta-parallel", Delta: true, Workers: 4, Shards: 7},
	{Name: "dirty-delta", Dirty: true, Delta: true},
	{Name: "dirty-delta-parallel", Dirty: true, Delta: true, Workers: 4, Shards: 7},
}

// pin raises GOMAXPROCS to the strategy's worker count for the duration of a
// replay and returns the function that restores it. With fewer Ps than
// workers — one, on a single-CPU host — parfold folds inline, and a parallel
// cell would silently re-run the sequential path.
func (st Strategy) pin() (restore func()) {
	prev := runtime.GOMAXPROCS(0)
	if st.Workers <= prev {
		return func() {}
	}
	runtime.GOMAXPROCS(st.Workers)
	return func() { runtime.GOMAXPROCS(prev) }
}

// replayFolder is the one parfold.Folder a parallel replay folds every take
// through — the shape production code has. The engine routine varies per
// (mode, phase), so the folder is built over a closure that calls cur, and
// each take points cur at the routine it wants before folding.
type replayFolder struct {
	*parfold.Folder
	cur     parfold.FoldFunc
	spawned int // Spawned() after the previous take
}

// folder builds the replay's folder for a parallel strategy.
func (st Strategy) folder(opts ...parfold.Option) *replayFolder {
	rf := &replayFolder{}
	rf.Folder = parfold.New(
		func(w *ckpt.Writer, r ckpt.Checkpointable) error { return rf.cur(w, r) },
		append(opts, parfold.WithWorkers(st.Workers), parfold.WithShards(st.Shards))...)
	return rf
}

// errInline fails a parallel take whose fold never left the inline path.
var errInline = errors.New("difftest: parallel strategy folded inline")

// sharded checks that the take just folded really ran sharded: it spawned
// workers.
func (rf *replayFolder) sharded() error {
	prev := rf.spawned
	rf.spawned = rf.Spawned()
	if rf.spawned == prev {
		return errInline
	}
	return nil
}

// fold resolves the traversal routine for one checkpoint, falling back to the
// generic fold.
func (e EngineSpec) fold(mode ckpt.Mode, phase string) parfold.FoldFunc {
	if e.NewFold != nil {
		if fold := e.NewFold(mode, phase); fold != nil {
			return fold
		}
	}
	return (*ckpt.Writer).Checkpoint
}

// emit resolves the engine's single-object emit routine for one dirty
// checkpoint, falling back to the generic virtual emit.
func (e EngineSpec) emit(phase string) ckpt.EmitOne {
	if e.NewEmit != nil {
		if fn := e.NewEmit(phase); fn != nil {
			return fn
		}
	}
	return ckpt.EmitObject
}

// dirtyEmit is emit for the sequential dirty fold: an engine without a
// specialized routine falls back to a nil EmitOne, selecting
// Writer.CheckpointDirty's fused virtual path. The body is byte-identical to
// the EmitObject path, so the differential matrix exercises the fused drain
// on every generic-engine cell for free.
func (e EngineSpec) dirtyEmit(phase string) ckpt.EmitOne {
	if e.NewEmit != nil {
		if fn := e.NewEmit(phase); fn != nil {
			return fn
		}
	}
	return nil
}

// engine returns the population's EngineSpec with the given name, or nil.
func (pop *Population) engine(name string) *EngineSpec {
	for i := range pop.Engines {
		if pop.Engines[i].Name == name {
			return &pop.Engines[i]
		}
	}
	return nil
}

// Replay builds the trace's population and replays it under one engine and
// strategy. It returns the checkpoint bodies in trace order (copied) and the
// final population, for rebuild-equivalence checks against the live graph.
func Replay(tr Trace, engine string, st Strategy) ([][]byte, *Population, error) {
	pop, err := tr.Build()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: build: %w", tr.Name, err)
	}
	eng := pop.engine(engine)
	if eng == nil {
		return nil, nil, fmt.Errorf("%s: no engine %q", tr.Name, engine)
	}

	roots := append([]ckpt.Checkpointable(nil), pop.Roots...)
	ckpt.SortRoots(roots)
	defer st.pin()()

	var bodies [][]byte
	take := newTake(pop, eng, st, roots, &bodies)
	if err := pop.Replay(take); err != nil {
		return nil, nil, fmt.Errorf("%s/%s/%s: replay: %w", tr.Name, engine, st.Name, err)
	}
	return bodies, pop, nil
}

// newTake builds the Take for one engine x strategy, appending a copy of
// every produced body to *bodies. Extracted from Replay so rewind replays
// (see rewind.go) can wrap the take with per-epoch live-state capture.
func newTake(pop *Population, eng *EngineSpec, st Strategy, roots []ckpt.Checkpointable, bodies *[][]byte) Take {
	if st.Dirty {
		return dirtyTake(pop, eng, st, roots, bodies)
	}
	if st.Workers <= 0 {
		var wopts []ckpt.WriterOption
		if st.Delta {
			wopts = append(wopts, ckpt.WithDeltaEncoding(deltaMin))
		}
		wr := ckpt.NewWriter(wopts...)
		return func(mode ckpt.Mode, phase string) error {
			body, err := seqFold(wr, mode, eng.fold(mode, phase), roots)
			if err != nil {
				return err
			}
			*bodies = append(*bodies, append([]byte(nil), body...))
			return nil
		}
	}
	// The folder's private session commits a take's epoch — and its staged
	// shadows with it — when the next take starts.
	var cache *ckpt.ShadowCache
	if st.Delta {
		cache = ckpt.NewShadowCache(deltaMin)
	}
	rf := st.folder(parfold.WithShadowCache(cache))
	return func(mode ckpt.Mode, phase string) error {
		rf.cur = eng.fold(mode, phase)
		body, _, err := rf.Fold(mode, roots)
		if err := errors.Join(err, rf.sharded()); err != nil {
			return err
		}
		*bodies = append(*bodies, append([]byte(nil), body...))
		return nil
	}
}

// seqFold is the byte reference every other path is compared against: the
// sequential writer looping fold over the roots in canonical order.
func seqFold(wr *ckpt.Writer, mode ckpt.Mode, fold parfold.FoldFunc, roots []ckpt.Checkpointable) ([]byte, error) {
	wr.Start(mode)
	for _, r := range roots {
		if err := fold(wr, r); err != nil {
			return nil, err
		}
	}
	body, _, err := wr.Finish()
	return body, err
}

// dirtyTake builds the Take for a dirty strategy: a tracker watches the
// population, incremental checkpoints drain its mark-queue (sequentially via
// Writer.CheckpointDirty or in parallel via Folder.FoldDirty), and Full
// checkpoints — the trace's own base takes plus any Tracker.NextMode
// degradation upgrade — fall back to the engine's traversal fold, followed
// by a re-Watch that rebuilds the view.
func dirtyTake(pop *Population, eng *EngineSpec, st Strategy, roots []ckpt.Checkpointable, bodies *[][]byte) Take {
	trk := ckpt.NewTracker()
	if pop.Domain != nil {
		pop.Domain.AttachTracker(trk)
	}
	watched := false
	// Delta strategies rotate full fallbacks and dirty drains over one body
	// stream, so both go through one writer — or one folder — and its
	// replay-scoped shadow cache.
	var cache *ckpt.ShadowCache
	if st.Delta {
		cache = ckpt.NewShadowCache(deltaMin)
	}
	var (
		wr *ckpt.Writer
		rf *replayFolder
	)
	if st.Workers <= 0 {
		wr = ckpt.NewWriter(ckpt.WithShadowCache(cache))
	} else {
		rf = st.folder(parfold.WithShadowCache(cache))
	}
	return func(mode ckpt.Mode, phase string) error {
		if !watched {
			if err := trk.Watch(roots...); err != nil {
				return err
			}
			watched = true
		}
		mode = trk.NextMode(mode)
		var (
			body []byte
			err  error
		)
		switch {
		case mode == ckpt.Full && rf == nil:
			body, err = seqFold(wr, mode, eng.fold(mode, phase), roots)
		case mode == ckpt.Full:
			rf.cur = eng.fold(mode, phase)
			body, _, err = rf.Fold(mode, roots)
			err = errors.Join(err, rf.sharded())
		case rf == nil:
			wr.Start(ckpt.Incremental)
			if err = wr.CheckpointDirty(trk, eng.dirtyEmit(phase)); err == nil {
				body, _, err = wr.Finish()
			}
		default:
			body, _, err = rf.FoldDirty(trk, eng.emit(phase))
			err = errors.Join(err, rf.sharded())
		}
		if err != nil {
			return err
		}
		*bodies = append(*bodies, append([]byte(nil), body...))
		if mode == ckpt.Full {
			// The Full body recaptured everything live, so Watch restores
			// the index.
			return trk.Watch(roots...)
		}
		return nil
	}
}

// RunDiff replays tr through every engine x strategy combination and asserts
// byte- and rebuild-equivalence. The byte-level reference is per strategy
// class (Dirty, Delta): traversal strategies compare against the virtual
// engine folding sequentially, dirty strategies against the virtual engine
// draining the mark-queue sequentially (dirty bodies order records by
// ascending id, so the two classes legitimately differ byte-wise), and delta
// strategies against the matching class's sequential delta replay (delta
// bodies carry v2 framing and patch payloads). Rebuild-level equivalence
// ties the classes together: every stream's rebuild must match the live
// graph, which must match the traversal reference's. The trace's population
// must list a "virtual" engine.
func RunDiff(t *testing.T, tr Trace) {
	t.Helper()
	refBodies, refPop, err := Replay(tr, "virtual", Strategies[0])
	if err != nil {
		t.Fatalf("reference replay: %v", err)
	}
	if len(refBodies) == 0 {
		t.Fatalf("trace %s produced no checkpoints", tr.Name)
	}
	refDump, err := LiveDump(refPop)
	if err != nil {
		t.Fatalf("live dump: %v", err)
	}
	// One sequential virtual replay per (Dirty, Delta) class present on the
	// strategy axis serves as that class's byte reference.
	type class struct{ dirty, delta bool }
	classRefs := map[class][][]byte{{}: refBodies}
	for _, st := range Strategies {
		key := class{st.Dirty, st.Delta}
		if _, ok := classRefs[key]; ok || st.Workers > 0 {
			continue
		}
		ref, _, err := Replay(tr, "virtual", st)
		if err != nil {
			t.Fatalf("%s reference replay: %v", st.Name, err)
		}
		classRefs[key] = ref
	}

	for _, eng := range refPop.Engines {
		for _, st := range Strategies {
			t.Run(eng.Name+"/"+st.Name, func(t *testing.T) {
				byteRef := classRefs[class{st.Dirty, st.Delta}]
				if byteRef == nil {
					t.Fatalf("no sequential reference strategy for class dirty=%v delta=%v", st.Dirty, st.Delta)
				}
				bodies, pop, err := Replay(tr, eng.Name, st)
				if err != nil {
					t.Fatalf("replay: %v", err)
				}
				if len(bodies) != len(byteRef) {
					t.Fatalf("took %d checkpoints, reference took %d", len(bodies), len(byteRef))
				}
				for i := range bodies {
					if !bytes.Equal(bodies[i], byteRef[i]) {
						t.Fatalf("checkpoint %d of %d: body differs from reference (%d vs %d bytes)",
							i, len(bodies), len(bodies[i]), len(byteRef[i]))
					}
				}
				rebuilt, err := RebuildDump(pop.Registry, bodies)
				if err != nil {
					t.Fatalf("rebuild: %v", err)
				}
				live, err := LiveDump(pop)
				if err != nil {
					t.Fatalf("live dump: %v", err)
				}
				if !bytes.Equal(rebuilt, live) {
					t.Fatalf("rebuilt graph differs from live population")
				}
				if !bytes.Equal(live, refDump) {
					t.Fatalf("final live state differs from reference replay's")
				}
			})
		}
	}
}

// RebuildDump applies the bodies to a fresh Rebuilder, materializes the
// graph, and returns its canonical dump.
func RebuildDump(reg *ckpt.Registry, bodies [][]byte) ([]byte, error) {
	rb := ckpt.NewRebuilder(reg)
	for i, b := range bodies {
		if err := rb.Apply(b); err != nil {
			return nil, fmt.Errorf("apply body %d: %w", i, err)
		}
	}
	return rebuilderDump(rb)
}

// LiveDump captures the population's current object graph as a canonical
// dump: one entry per object reachable from the roots, keyed and sorted by
// id. It takes a throwaway full checkpoint with the generic driver (which
// also verifies no object is reachable from two roots — the disjointness
// half of the parallel memory-model contract), so the population's modified
// flags are consumed; call it only after the replay is done.
func LiveDump(pop *Population) ([]byte, error) {
	roots := append([]ckpt.Checkpointable(nil), pop.Roots...)
	ckpt.SortRoots(roots)
	wr := ckpt.NewWriter()
	wr.Start(ckpt.Full)
	for _, r := range roots {
		if err := wr.Checkpoint(r); err != nil {
			return nil, err
		}
	}
	body, _, err := wr.Finish()
	if err != nil {
		return nil, err
	}
	dump := make(map[uint64]dumpRec)
	if _, err := ckpt.InspectBodyKinds(body, func(id uint64, t ckpt.TypeID, _ byte, payload []byte) error {
		if _, dup := dump[id]; dup {
			return fmt.Errorf("object %d reachable twice: roots are not disjoint", id)
		}
		dump[id] = dumpRec{typeID: t, payload: append([]byte(nil), payload...)}
		return nil
	}); err != nil {
		return nil, err
	}
	return canonical(dump), nil
}

// dumpRec is one object's canonical dump entry.
type dumpRec struct {
	typeID  ckpt.TypeID
	payload []byte
}

// canonical serializes a dump in ascending id order.
func canonical(dump map[uint64]dumpRec) []byte {
	ids := make([]uint64, 0, len(dump))
	for id := range dump {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var e wire.Encoder
	for _, id := range ids {
		rec := dump[id]
		e.Uvarint(id)
		e.Uvarint(uint64(rec.typeID))
		e.BytesField(rec.payload)
	}
	return append([]byte(nil), e.Bytes()...)
}
