package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"ickpt/ckpt"
	"ickpt/internal/analysis"
	"ickpt/internal/harness"
	"ickpt/internal/minic"
	"ickpt/stablelog"
)

// analysisPhases is the paper's realistic workload: back-to-back jobs of the
// analysis engine (side-effect → binding-time → evaluation-time analysis
// over the image program), checkpointed after every fixpoint iteration. The
// application does most of the work, so barrier, traversal and
// specialization cost show in overhead_pct here and nowhere else.
type analysisPhases struct{}

func (analysisPhases) name() string { return "analysis-phases" }
func (analysisPhases) why() string {
	return "the paper's analysis engine, checkpointed per fixpoint iteration by generated routines: the application dominates, so barrier, traversal and specialization cost show in overhead_pct"
}
func (analysisPhases) foldKind() spanKind { return spWriterFold }

type analysisSize struct {
	program int // copies of the image program analysed together
	jobs    int // checkpointed pass; each job runs again without checkpoints as its base
}

const (
	analysisJobs = 220
	// analysisEpochsPerJob is about what one job takes in checkpoints (its
	// Full anchor plus one per fixpoint iteration), to size buffers.
	analysisEpochsPerJob = 9
)

func (analysisPhases) size(scale float64) analysisSize {
	sz := analysisSize{program: 4, jobs: scaled(analysisJobs, scale, 6)}
	if scale < 0.5 {
		sz.program = 1
	}
	return sz
}

func (w analysisPhases) passEpochs(scale float64) int {
	return w.size(scale).jobs * analysisEpochsPerJob
}

// analysisJobStream generates the jobs: every job analyses the same program
// under its own binding-time division — one seeded global of the workload's
// dynamic ones is static instead — so the jobs differ, but a run's mix of
// iterations hardly depends on the seed (a wider variation made pause_p50_ms,
// which sits on a steep stretch of the pause distribution, a property of the
// seed).
type analysisJobStream struct {
	file    *minic.File
	globals []string // the workload's dynamic globals, sorted
	seed    int64
}

func newAnalysisJobStream(seed int64, program int) (*analysisJobStream, error) {
	src, err := harness.ImageWorkload.ScaledProgram(program)
	if err != nil {
		return nil, err
	}
	f, err := minic.Parse(src)
	if err != nil {
		return nil, err
	}
	s := &analysisJobStream{file: f, seed: seed}
	for g := range harness.ImageWorkload.Division(program).Globals {
		s.globals = append(s.globals, g)
	}
	sort.Strings(s.globals)
	return s, nil
}

// job returns job j's fresh engine and division. Job j depends on (seed, j)
// only, so any one job can be replayed alone.
func (s *analysisJobStream) job(j int) (*analysis.Engine, analysis.Division, error) {
	e, err := analysis.NewEngine(s.file)
	if err != nil {
		return nil, analysis.Division{}, err
	}
	rng := rand.New(rand.NewSource(s.seed<<20 + int64(j)))
	static := rng.Intn(len(s.globals))
	div := analysis.Division{Entry: "main", Globals: map[string]uint64{}}
	for i, g := range s.globals {
		if i != static {
			div.Globals[g] = analysis.BTDynamic
		}
	}
	return e, div, nil
}

// runPhases runs the three analyses of one job, calling ck after every
// iteration, and returns the number of iterations.
func runPhases(e *analysis.Engine, div analysis.Division, ck analysis.CheckpointFn) (int, error) {
	st, err := e.RunAll(div, ck)
	return len(st), err
}

// newBase: none. The base work is interleaved with the checkpointed pass —
// every job runs a second time on a fresh engine, without checkpoints, right
// after its checkpointed run (see run). Checkpointing costs this workload
// some 20 % of the job, a small difference of two large times; measured in
// two separate passes, seconds apart on a shared box, it swung ±40 % from
// round to round.
func (analysisPhases) newBase(int64, float64) (func() (int, error), error) { return nil, nil }

// analysisInst checkpoints with the codegen engine: the per-phase generated
// routines (analysis.Generated(phase)) over Writer.Start / Emitter / Finish,
// traversal-based, no tracker; bodies are copied into the log
// (AsyncWriter.Append), WithSyncEvery(8); every job opens with a Full anchor
// taken by the generic traversal (generated routines are incremental-only).
type analysisInst struct {
	env   *env
	sz    analysisSize
	jobs  *analysisJobStream
	st    *stack
	wr    *ckpt.Writer
	c     counts
	first []uint64 // epoch of each job's Full anchor
	roots []ckpt.Checkpointable

	next    *analysis.Engine // job 0, built and anchored by setup
	nextDiv analysis.Division
}

func (w analysisPhases) setup(e *env) (instance, error) {
	sz := w.size(e.scale)
	jobs, err := newAnalysisJobStream(e.seed, sz.program)
	if err != nil {
		return nil, err
	}
	in := &analysisInst{env: e, sz: sz, jobs: jobs}
	sess := ckpt.NewSession()
	st, err := newStack(e, sess, w.passEpochs(e.scale), stablelog.WithSyncEvery(8))
	if err != nil {
		return nil, err
	}
	in.st = st
	in.wr = ckpt.NewWriter(ckpt.WithSession(sess))
	if in.next, in.nextDiv, err = jobs.job(0); err != nil {
		return nil, err
	}
	in.roots = in.next.Roots()
	if err := in.checkpoint(newPass(nil, spWriterFold, 1), ""); err != nil {
		return nil, err
	}
	return in, st.aw.Flush()
}

// checkpoint takes one checkpoint of the current job's roots: incremental
// through the generated routine of phase, or Full (phase "") by traversal.
func (in *analysisInst) checkpoint(p *pass, phase string) error {
	mode := in.st.sess.NextMode(ckpt.Incremental)
	if phase == "" {
		mode = ckpt.Full
	}
	in.wr.Start(mode)
	if mode == ckpt.Full {
		t0 := nowNs()
		for _, r := range in.roots {
			if err := in.wr.Checkpoint(r); err != nil {
				break // Finish reports it
			}
		}
		in.c[cFullFolds]++
		in.c[cFullFoldNs] += nowNs() - t0
	} else {
		fn, ok := analysis.Generated(phase)
		if !ok {
			return fmt.Errorf("no generated routine for phase %q", phase)
		}
		em := in.wr.Emitter()
		for _, r := range in.roots {
			fn(r, em)
		}
	}
	body, stats, err := in.wr.Finish()
	if err != nil {
		return err
	}
	in.c.addStats(stats)
	p.folded()
	in.st.acks.submit(in.wr.Epoch())
	return in.st.aw.Append(mode, in.wr.Epoch(), body)
}

func (in *analysisInst) run(p *pass) error {
	in.first = append(in.first[:0], in.wr.Epoch())
	ck := func(phase string, _ int) error {
		p.ask(in.wr.Epoch() + 1)
		if err := in.checkpoint(p, phase); err != nil {
			return err
		}
		p.resume()
		return nil
	}
	for j := 0; j < in.sz.jobs; j++ {
		e, div := in.next, in.nextDiv
		if j > 0 {
			var err error
			if e, div, err = in.jobs.job(j); err != nil {
				return err
			}
			in.roots = e.Roots()
			in.first = append(in.first, in.wr.Epoch()+1)
			if err := ck("", 0); err != nil {
				return fmt.Errorf("job %d anchor: %w", j, err)
			}
		}
		if _, err := runPhases(e, div, ck); err != nil {
			return fmt.Errorf("job %d: %w", j, err)
		}
		// The base side: the same job, same division, no checkpoints. One
		// epoch for the anchor it does not take plus one per iteration.
		p.suspend()
		e, div, err := in.jobs.job(j)
		if err != nil {
			return err
		}
		n, err := runPhases(e, div, nil)
		if err != nil {
			return fmt.Errorf("job %d base: %w", j, err)
		}
		p.resumeClock(1 + n)
	}
	in.next = nil
	return p.flush(in.st.aw.Flush)
}

func (in *analysisInst) snapshot() counts {
	c := in.c
	in.st.addCounts(&c)
	return c
}

func (in *analysisInst) tap() *ackTap                  { return in.st.acks }
func (in *analysisInst) live() [][]ckpt.Checkpointable { return [][]ckpt.Checkpointable{in.roots} }
func (in *analysisInst) close() error                  { return in.st.close() }
func (in *analysisInst) setupStats() setupStats        { return setupStats{} }

func (in *analysisInst) restart(l *stablelog.Log, tr *tracer) ([]map[uint64]ckpt.Restorable, restartStats, error) {
	return restartSingle(l, analysis.Registry(), tr)
}

func (in *analysisInst) maintain(l *stablelog.Log, rng *rand.Rand, tr *tracer, check int) (maintStats, error) {
	return maintainSingle(l, analysis.Registry(), stablelog.Binomial{Window: 64, Tail: 8}, rewindSamples, rng, tr, check)
}

var errReplayDone = errors.New("replay reached its epoch")

// stateAt replays, for each epoch, the one job it belongs to on a fresh
// engine, up to the iteration whose checkpoint had that epoch.
func (in *analysisInst) stateAt(epochs []uint64) ([]digest, error) {
	var out []digest
	for _, epoch := range epochs {
		j := sort.Search(len(in.first), func(i int) bool { return in.first[i] > epoch }) - 1
		if j < 0 {
			return nil, fmt.Errorf("epoch %d precedes the first job", epoch)
		}
		e, div, err := in.jobs.job(j)
		if err != nil {
			return nil, err
		}
		left := int(epoch - in.first[j]) // iterations to run past the anchor
		if left > 0 {
			_, err := runPhases(e, div, func(string, int) error {
				if left--; left == 0 {
					return errReplayDone
				}
				return nil
			})
			if !errors.Is(err, errReplayDone) {
				return nil, fmt.Errorf("job %d ended before epoch %d: %v", j, epoch, err)
			}
		}
		d, err := digestRoots(e.Roots())
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}
