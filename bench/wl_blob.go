package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"ickpt/ckpt"
	"ickpt/ckpt/parfold"
	"ickpt/internal/synth"
	"ickpt/stablelog"
	"ickpt/wire"
)

// blobDense: few large objects, all of them dirty every step. Diff/encode,
// shadow staging and log bandwidth do most of the work and the tracker
// almost none — the mirror image of synth-sparse — and it is the only
// workload where sub-object deltas fire.
type blobDense struct{}

func (blobDense) name() string { return "blob-dense" }
func (blobDense) why() string {
	return "every 16 KB blob rewritten 5% per epoch under delta encoding and the parallel folder: diff/encode, shadow staging and log bandwidth dominate; recovery is byte-bound"
}
func (blobDense) foldKind() spanKind { return spParfoldFold }

type blobSize struct {
	blobs      int // byte-blob objects
	blobBytes  int
	runs       int // contiguous byte runs rewritten per blob per step
	runBytes   int
	structures int // static synth.Shape{structures, 1, Ints1} population
	epochs     int
	baseEpochs int // each half of the base pass
	fullEvery  int
}

const (
	blobEpochs     = 1632 // 25 Full periods and a half: the restart replays a Full and 32 delta incrementals
	blobBaseEpochs = 4000
	blobFullEvery  = 64
	// blobDeltaFloor is the shadow cache's size floor: payloads above it are
	// delta candidates. The other workloads' records all stay far below it.
	blobDeltaFloor = 4096
)

func (blobDense) size(scale float64) blobSize {
	return blobSize{
		blobs:      scaled(96, scale, 8),
		blobBytes:  16 << 10,
		runs:       8,
		runBytes:   (16 << 10) / 20 / 8, // 5% of the blob over 8 runs
		structures: scaled(2000, scale, 8),
		epochs:     scaled(blobEpochs, scale, 40),
		baseEpochs: scaled(blobBaseEpochs, scale, 40),
		fullEvery:  blobFullEvery,
	}
}

func (w blobDense) passEpochs(scale float64) int { return w.size(scale).epochs }

const blobTypeName = "bench.blob"

var blobType = ckpt.TypeIDOf(blobTypeName)

// blob is a flat fixed-width payload, the shape payload deltas exist for
// (internal/harness/deltaexp.go's fixture, plus Restore).
type blob struct {
	info ckpt.Info
	data []byte
}

func (b *blob) CheckpointInfo() *ckpt.Info    { return &b.info }
func (b *blob) CheckpointTypeID() ckpt.TypeID { return blobType }
func (b *blob) Record(e *wire.Encoder)        { e.BytesField(b.data) }
func (b *blob) Fold(*ckpt.Writer) error       { return nil }
func (b *blob) Restore(d *wire.Decoder, _ *ckpt.Resolver) error {
	b.data = d.BytesField()
	return d.Err()
}

func blobRegistry() *ckpt.Registry {
	reg := synth.Registry()
	reg.MustRegister(blobTypeName, func(id uint64) ckpt.Restorable {
		return &blob{info: ckpt.RestoredInfo(id)}
	})
	return reg
}

// blobGraph is the blobs plus a static population of small structures in
// one id space (the blobs' ids follow the structures').
type blobGraph struct {
	sz    blobSize
	w     *synth.Workload
	blobs []*blob
	roots []ckpt.Checkpointable
	rng   *rand.Rand
}

func newBlobGraph(seed int64, sz blobSize) *blobGraph {
	g := &blobGraph{
		sz:  sz,
		w:   synth.Build(synth.Shape{Structures: sz.structures, ListLen: 1, Kind: synth.Ints1}),
		rng: rand.New(rand.NewSource(seed)),
	}
	g.roots = append(g.roots, g.w.Roots()...)
	for i := 0; i < sz.blobs; i++ {
		b := &blob{info: ckpt.NewInfo(g.w.Domain), data: make([]byte, sz.blobBytes)}
		g.rng.Read(b.data)
		g.blobs = append(g.blobs, b)
		g.roots = append(g.roots, b)
	}
	return g
}

// step rewrites 5% of every blob, as a few contiguous runs at seeded
// offsets, and marks it.
func (g *blobGraph) step() {
	for _, b := range g.blobs {
		for r := 0; r < g.sz.runs; r++ {
			off := g.rng.Intn(len(b.data) - g.sz.runBytes)
			g.rng.Read(b.data[off : off+g.sz.runBytes])
		}
		b.info.Mark()
	}
}

func (w blobDense) newBase(seed int64, scale float64) (func() (int, error), error) {
	sz := w.size(scale)
	g := newBlobGraph(seed, sz)
	return func() (int, error) {
		for e := 0; e < sz.baseEpochs; e++ {
			g.step()
		}
		return sz.baseEpochs, nil
	}, nil
}

// blobInst checkpoints with parfold.Folder at default workers over a
// session and a shared shadow cache (ckpt.WithDeltaEncoding(4096)
// semantics): FoldDirty for incrementals, copied into the log with Append;
// FoldTo (zero-copy) for the Full every 64 epochs; WithSyncEvery(16).
type blobInst struct {
	env     *env
	sz      blobSize
	g       *blobGraph
	st      *stack
	trk     *ckpt.Tracker
	shadow  *ckpt.ShadowCache
	folder  *parfold.Folder
	c       counts
	watchNs int64
}

func (w blobDense) setup(e *env) (instance, error) {
	sz := w.size(e.scale)
	in := &blobInst{env: e, sz: sz, g: newBlobGraph(e.seed, sz), trk: ckpt.NewTracker(), shadow: ckpt.NewShadowCache(blobDeltaFloor)}
	sess := ckpt.NewSession(ckpt.WithInfoResolver(in.trk.Resolve))
	st, err := newStack(e, sess, sz.epochs+1, stablelog.WithSyncEvery(16))
	if err != nil {
		return nil, err
	}
	in.st = st
	in.folder = parfold.NewGeneric(parfold.WithSession(sess), parfold.WithShadowCache(in.shadow))
	in.g.w.Domain.AttachTracker(in.trk)
	if err := in.checkpoint(newPass(nil, spParfoldFold, 1), true); err != nil {
		return nil, err
	}
	t0 := nowNs()
	if err := in.trk.Watch(in.g.roots...); err != nil {
		return nil, err
	}
	in.watchNs = nowNs() - t0
	return in, st.aw.Flush()
}

func (in *blobInst) checkpoint(p *pass, full bool) error {
	mode := in.st.nextMode(in.trk, &in.c, full)
	in.c[cRawBytes] += int64(in.sz.blobs * in.sz.blobBytes)
	if mode == ckpt.Full {
		// FoldTo reserves, folds and submits in one call; the submit
		// timestamp therefore precedes the fold.
		in.st.acks.submit(in.folder.Epoch() + 1)
		t0 := nowNs()
		stats, err := in.folder.FoldTo(in.st.aw, ckpt.Full, in.g.roots)
		if err != nil {
			return err
		}
		in.c[cFullFolds]++
		in.c[cFullFoldNs] += nowNs() - t0
		in.c.addStats(stats)
		p.folded()
		if in.trk.Degraded() {
			return in.trk.Watch(in.g.roots...)
		}
		return nil
	}
	in.c[cDirty] += int64(in.trk.Dirty())
	body, stats, err := in.folder.FoldDirty(in.trk, ckpt.EmitObject)
	if err != nil {
		return err
	}
	in.c.addStats(stats)
	p.folded()
	in.st.acks.submit(in.folder.Epoch())
	return in.st.aw.Append(ckpt.Incremental, in.folder.Epoch(), body)
}

func (in *blobInst) run(p *pass) error {
	for e := 1; e <= in.sz.epochs; e++ {
		in.g.step()
		p.ask(in.folder.Epoch() + 1)
		if err := in.checkpoint(p, e%in.sz.fullEvery == 0); err != nil {
			return fmt.Errorf("epoch %d: %w", e, err)
		}
		p.resume()
	}
	p.marks = in.sz.epochs * in.sz.blobs
	return p.flush(in.st.aw.Flush)
}

func (in *blobInst) snapshot() counts {
	c := in.c
	in.st.addCounts(&c)
	st := in.shadow.Stats()
	c[cShadowWins] = int64(st.Wins)
	c[cShadowLosses] = int64(st.Losses)
	c[cShadowSkipped] = int64(st.SkippedEmits)
	c[cShadowEntries] = int64(in.shadow.Len())
	return c
}

func (in *blobInst) tap() *ackTap                  { return in.st.acks }
func (in *blobInst) live() [][]ckpt.Checkpointable { return [][]ckpt.Checkpointable{in.g.roots} }
func (in *blobInst) setupStats() setupStats {
	// The folder's defaults: GOMAXPROCS workers, four shards each.
	nw := runtime.GOMAXPROCS(0)
	return setupStats{watchNs: in.watchNs, workers: nw, shards: 4 * nw}
}

func (in *blobInst) close() error {
	err := in.st.close()
	in.folder.Release()
	return err
}

func (in *blobInst) restart(l *stablelog.Log, tr *tracer) ([]map[uint64]ckpt.Restorable, restartStats, error) {
	return restartSingle(l, blobRegistry(), tr)
}

func (in *blobInst) maintain(l *stablelog.Log, rng *rand.Rand, tr *tracer, check int) (maintStats, error) {
	return maintainSingle(l, blobRegistry(), stablelog.Binomial{Window: 64, Tail: 8}, rewindSamples, rng, tr, check)
}

func (in *blobInst) stateAt(epochs []uint64) ([]digest, error) {
	g := newBlobGraph(in.env.seed, in.sz)
	return twinStates(epochs, g.step, g.roots)
}
