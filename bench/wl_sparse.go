package main

import (
	"fmt"
	"math/rand"

	"ickpt/ckpt"
	"ickpt/internal/synth"
	"ickpt/stablelog"
)

// synthSparse: a large graph of which a sliver changes per step. Bodies are
// small, so the per-epoch fixed costs — dirty drain, session bookkeeping,
// segment framing, fsync cadence — dominate and encoding does little.
type synthSparse struct{}

func (synthSparse) name() string { return "synth-sparse" }
func (synthSparse) why() string {
	return "graph larger than cache, 0.2% dirty per epoch: tracker drain, session, segment framing and fsync cadence dominate; recovery is segment-count-bound"
}
func (synthSparse) foldKind() spanKind { return spWriterFold }

type sparseSize struct {
	structures int // synth.Shape{structures, 5, Ints10}: 26 objects each
	marks      int // seeded random element writes per step
	epochs     int // checkpointed pass
	baseEpochs int // each half of the base pass (its own count; compared per epoch)
	fullEvery  int
}

func (synthSparse) size(scale float64) sparseSize {
	return sparseSize{
		structures: scaled(4000, scale, 16),
		marks:      scaled(200, scale, 4),
		epochs:     scaled(sparseEpochs, scale, 48),
		baseEpochs: scaled(sparseBaseEpochs, scale, 48),
		fullEvery:  scaled(sparseFullEvery, scale, 16),
	}
}

const (
	sparseEpochs     = 20736 // 10 Full periods and an eighth: the restart replays a 257-segment chain
	sparseBaseEpochs = 100000
	sparseFullEvery  = 2048
)

func (w synthSparse) passEpochs(scale float64) int { return w.size(scale).epochs }

// sparseGraph is the synthetic population plus an element index, so a step
// picks its victims in O(marks) instead of walking the population the way
// synth.Workload.Mutate does.
type sparseGraph struct {
	w     *synth.Workload
	elems []*synth.Element10
	rng   *rand.Rand
	marks int
}

func newSparseGraph(seed int64, sz sparseSize) *sparseGraph {
	g := &sparseGraph{
		w:     synth.Build(synth.Shape{Structures: sz.structures, ListLen: 5, Kind: synth.Ints10}),
		rng:   rand.New(rand.NewSource(seed)),
		marks: sz.marks,
	}
	g.elems = make([]*synth.Element10, 0, sz.structures*synth.NumLists*5)
	for _, r := range g.w.Roots() {
		s := r.(*synth.Structure10)
		for li := 0; li < synth.NumLists; li++ {
			for e := s.List(li); e != nil; e = e.Next {
				g.elems = append(g.elems, e)
			}
		}
	}
	return g
}

func (g *sparseGraph) step() {
	for i := 0; i < g.marks; i++ {
		e := g.elems[g.rng.Intn(len(g.elems))]
		e.V0++
		e.Info.Mark()
	}
}

func (w synthSparse) newBase(seed int64, scale float64) (func() (int, error), error) {
	sz := w.size(scale)
	g := newSparseGraph(seed, sz)
	return func() (int, error) {
		for e := 0; e < sz.baseEpochs; e++ {
			g.step()
		}
		return sz.baseEpochs, nil
	}, nil
}

// sparseInst checkpoints with the virtual engine over the tracker's sorted
// drain (CheckpointDirty(trk, nil)) and hands bodies to the log zero-copy
// (Reserve / SwapEncoder / Submit); WithSyncEvery(32), WithQueueLimit(64).
type sparseInst struct {
	env     *env
	sz      sparseSize
	g       *sparseGraph
	st      *stack
	trk     *ckpt.Tracker
	wr      *ckpt.Writer
	c       counts
	watchNs int64
}

func (w synthSparse) setup(e *env) (instance, error) {
	sz := w.size(e.scale)
	in := &sparseInst{env: e, sz: sz, g: newSparseGraph(e.seed, sz), trk: ckpt.NewTracker()}
	sess := ckpt.NewSession(ckpt.WithInfoResolver(in.trk.Resolve))
	st, err := newStack(e, sess, sz.epochs+1, stablelog.WithSyncEvery(32), stablelog.WithQueueLimit(64))
	if err != nil {
		return nil, err
	}
	in.st = st
	in.wr = ckpt.NewWriter(ckpt.WithSession(sess))
	in.g.w.Domain.AttachTracker(in.trk)
	if err := in.checkpoint(newPass(nil, spWriterFold, 1), true); err != nil {
		return nil, err
	}
	t0 := nowNs()
	if err := in.trk.Watch(in.g.w.Roots()...); err != nil {
		return nil, err
	}
	in.watchNs = nowNs() - t0
	return in, st.aw.Flush()
}

func (in *sparseInst) checkpoint(p *pass, full bool) error {
	mode := in.st.nextMode(in.trk, &in.c, full)
	enc := in.st.aw.Reserve()
	in.wr.SwapEncoder(enc)
	in.wr.Start(mode)
	var err error
	if mode == ckpt.Full {
		t0 := nowNs()
		err = in.g.w.CheckpointGeneric(in.wr)
		in.c[cFullFolds]++
		in.c[cFullFoldNs] += nowNs() - t0
	} else {
		in.c[cDirty] += int64(in.trk.Dirty())
		err = in.wr.CheckpointDirty(in.trk, nil)
	}
	_, stats, ferr := in.wr.Finish()
	if err == nil {
		err = ferr
	}
	if err != nil {
		in.st.aw.Recycle(enc)
		return err
	}
	in.c.addStats(stats)
	if mode == ckpt.Full && in.trk.Degraded() {
		if err := in.trk.Watch(in.g.w.Roots()...); err != nil {
			return err
		}
	}
	p.folded()
	in.st.acks.submit(in.wr.Epoch())
	return in.st.aw.Submit(mode, in.wr.Epoch(), enc)
}

func (in *sparseInst) run(p *pass) error {
	for e := 1; e <= in.sz.epochs; e++ {
		in.g.step()
		p.ask(in.wr.Epoch() + 1)
		if err := in.checkpoint(p, e%in.sz.fullEvery == 0); err != nil {
			return fmt.Errorf("epoch %d: %w", e, err)
		}
		p.resume()
	}
	p.marks = in.sz.epochs * in.sz.marks
	return p.flush(in.st.aw.Flush)
}

func (in *sparseInst) snapshot() counts {
	c := in.c
	in.st.addCounts(&c)
	return c
}

func (in *sparseInst) tap() *ackTap                  { return in.st.acks }
func (in *sparseInst) live() [][]ckpt.Checkpointable { return [][]ckpt.Checkpointable{in.g.w.Roots()} }
func (in *sparseInst) close() error                  { return in.st.close() }
func (in *sparseInst) setupStats() setupStats        { return setupStats{watchNs: in.watchNs} }

func (in *sparseInst) restart(l *stablelog.Log, tr *tracer) ([]map[uint64]ckpt.Restorable, restartStats, error) {
	return restartSingle(l, synth.Registry(), tr)
}

func (in *sparseInst) maintain(l *stablelog.Log, rng *rand.Rand, tr *tracer, check int) (maintStats, error) {
	return maintainSingle(l, synth.Registry(), stablelog.Binomial{Window: 64, Tail: 8}, sparseRewinds, rng, tr, check)
}

// sparseRewinds: every rewind on this workload applies a Full body of the
// whole population, so a round samples fewer than the other workloads do.
const sparseRewinds = 3

func (in *sparseInst) stateAt(epochs []uint64) ([]digest, error) {
	g := newSparseGraph(in.env.seed, in.sz)
	return twinStates(epochs, g.step, g.w.Roots())
}
