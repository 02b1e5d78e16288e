package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"ickpt/ckpt"
	"ickpt/stablelog"
)

// A workload is one closed-loop client: it mutates a graph step by step and
// checkpoints after every step, then crashes and restarts. Engine, entry
// points and flush policy are part of the definition and identical on both
// sides of any comparison.
type workload interface {
	name() string
	why() string
	// foldKind names the layer the workload's fold span belongs to.
	foldKind() spanKind
	// newBase builds the twin graph of the base pass (untimed) and returns
	// one half of the pass: the same seeded mutations with barriers firing,
	// but no Tracker, no Writer and no log. It reports the epochs it ran. A
	// workload that interleaves its base work with the checkpointed pass
	// instead (pass.suspend) returns nil.
	newBase(seed int64, scale float64) (func() (epochs int, err error), error)
	// setup builds the object graph, creates the log, attaches the
	// checkpoint stack, takes the Full anchor and waits for its ack.
	setup(e *env) (instance, error)
	// passEpochs is the number of checkpoints the checkpointed pass takes
	// (about, where it depends on the data), to size buffers.
	passEpochs(scale float64) int
}

// env is what a round hands its workload.
type env struct {
	seed  int64
	scale float64 // 1 = the benchmark's size; the smoke test runs 1/50
	dir   string  // fresh directory for this round's log
	fs    *countFS
}

// instance is the live stack of one round.
type instance interface {
	// run is the checkpointed pass, closing Flush included.
	run(p *pass) error
	// snapshot returns the cumulative layer counters.
	snapshot() counts
	// tap returns the ack seam, nil when the workload's stack owns its
	// AsyncWriter (tenants).
	tap() *ackTap
	// live returns the live object graph, one root set per recovery unit.
	live() [][]ckpt.Checkpointable
	// close closes the writer (or manager) and the log.
	close() error
	// restart is the crash restart on an opened log: Recover and Build, one
	// rebuilt object set per recovery unit.
	restart(l *stablelog.Log, tr *tracer) ([]map[uint64]ckpt.Restorable, restartStats, error)
	// maintain runs retention and the rewind samples on the open log.
	maintain(l *stablelog.Log, rng *rand.Rand, tr *tracer, check int) (maintStats, error)
	// stateAt returns the digests a fresh twin, driven by the same seed,
	// has at the given ascending epochs — the ground truth for rewinds.
	stateAt(epochs []uint64) ([]digest, error)
	// setupStats reports what setup measured on the side.
	setupStats() setupStats
}

type setupStats struct {
	watchNs         int64
	workers, shards int
}

type restartStats struct {
	segments, bytes int64
	objects         int64
	unitRecoverNs   []int64 // tenants: one Recover+Build per tenant
}

type maintStats struct {
	retainNs                int64
	rawBytes, retainedBytes int64
	rewindNs                []int64
	rewindSegs, rewindBytes []int64
	checks                  []rewindCheck
	// audited is set when the workload's stack exposes no writer statistics
	// and the pass's records were counted off the log bodies instead.
	audited                   bool
	auditRecords, auditDeltas int64
}

// rewindCheck is one rewound state to verify: got is its digest; want is
// the live truth when the workload knows it already, otherwise the round
// asks the twin (stateAt).
type rewindCheck struct {
	epoch uint64
	got   digest
	want  *digest
}

type roundOpts struct {
	seed     int64
	scale    float64
	traced   bool
	verify   bool
	tmpRoot  string
	sabotage bool // flip one byte of the log copy the durability check recovers (test only)
}

// roundResult is one round's numbers; it travels from the round's process
// to the run's as JSON.
type roundResult struct {
	E2E      map[string]float64 `json:"e2e"`
	Layer    map[string]float64 `json:"layer,omitempty"` // traced rounds only
	Exact    map[string]float64 `json:"exact"`           // counts that must repeat for a seed
	Ops      int                `json:"ops"`
	Failed   int                `json:"failed"`
	Problems []string           `json:"problems,omitempty"`
	PassSec  float64            `json:"pass_s"`
	Epochs   int                `json:"epochs"`

	tr *tracer
}

func (r *roundResult) fail(n int, format string, args ...any) {
	r.Failed += n
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// runRound runs one round of w on fresh state: setup → base pass →
// checkpointed pass → Close → recover → retain + rewinds, then (verify
// rounds) the correctness checks. Only a failure of the harness itself is
// returned as an error; a wrong output is a failed op in the result.
func runRound(w workload, o roundOpts) (*roundResult, error) {
	dir, err := os.MkdirTemp(o.tmpRoot, w.name()+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := &roundResult{E2E: map[string]float64{}, Exact: map[string]float64{}}
	e := &env{seed: o.seed, scale: o.scale, dir: dir, fs: newCountFS()}
	n := w.passEpochs(o.scale)
	if o.traced {
		res.tr = newTracer(10*n + 1024)
	}

	// Setup.
	calibNs := calibrate()
	runtime.GC()
	t0 := nowNs()
	inst, err := w.setup(e)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", w.name(), err)
	}
	setupNs := nowNs() - t0
	closed := false
	defer func() {
		if !closed {
			inst.close()
		}
	}()

	// Base pass, first half. The base pass runs in two halves, one on each
	// side of the checkpointed pass, so a slow spell on a shared box that
	// spans the round weighs on both sides of overhead_pct alike.
	baseEpochs, baseNs, err := runBase(w, o)
	if err != nil {
		return nil, err
	}

	// Checkpointed pass.
	logPath := filepath.Join(dir, logName)
	p := newPass(res.tr, w.foldKind(), n+n/4+16)
	tap := inst.tap()
	if tap != nil {
		tap.trace(res.tr)
		p.acks = tap
	}
	// The power cut the durability check simulates strikes mid-pass: note
	// what had been acked, then how much of the file an fsync had covered
	// (in that order, so the durable prefix can only be ahead of the acks).
	var cutAcked, cutLen int64
	if o.verify {
		p.cutAt = max(1, n/2)
		p.cut = func() {
			cutAcked = inst.snapshot()[cAcked]
			cutLen = e.fs.syncedLen(logPath)
		}
	}
	before := inst.snapshot()
	fsBefore := e.fs.counts()
	fsyncFrom := e.fs.fsyncCount()
	size0 := fileSize(logPath)
	runtime.GC()
	var ms0 runtime.MemStats
	if o.traced {
		runtime.ReadMemStats(&ms0)
		e.fs.spans(res.tr)
	}
	cpu0 := cpuNs()
	t0 = p.begin()
	if res.tr != nil {
		res.tr.open(spPass, t0)
	}
	runErr := inst.run(p)
	t1 := nowNs()
	if res.tr != nil {
		res.tr.close(t1)
	}
	cpuPass := cpuNs() - cpu0 - p.offCPU
	passNs := t1 - t0 - p.offNs
	e.fs.spans(nil)
	var ms1 runtime.MemStats
	if o.traced {
		runtime.ReadMemStats(&ms1)
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s checkpointed pass: %w", w.name(), runErr)
	}
	size1 := fileSize(logPath)
	after := inst.snapshot()
	fsPass := e.fs.counts().sub(fsBefore)
	fsyncNs := e.fs.fsyncDurations(fsyncFrom)
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := after.sub(before)
	epochs := p.epochs
	calibNs += calibrate()
	if p.cutAt > 0 {
		p.cut() // a pass shorter than sized: the power cut strikes at its end
	}

	// Base pass, second half.
	e2, ns2, err := runBase(w, o)
	if err != nil {
		return nil, err
	}
	baseEpochs, baseNs = baseEpochs+e2+p.baseEpochs, baseNs+ns2+p.baseNs
	res.Epochs, res.PassSec = epochs, float64(passNs)/1e9
	res.Ops = epochs

	var liveDigests []digest
	if o.verify {
		for _, roots := range inst.live() {
			d, err := digestRoots(roots)
			if err != nil {
				return nil, err
			}
			liveDigests = append(liveDigests, d)
		}
	}
	closed = true
	if err := inst.close(); err != nil {
		res.fail(1, "close: %v", err)
	}
	final := inst.snapshot()
	cutPath := logPath + ".cut"
	if o.verify {
		// Taken now: retention rewrites the log further down.
		if err := copyPrefix(logPath, cutPath, cutLen); err != nil {
			return nil, err
		}
	}

	// Every epoch of the pass must have been acknowledged durable.
	if got := c[cAcked]; got != int64(epochs) {
		res.fail(max(1, epochs-int(got)), "%d epochs submitted, %d acked", epochs, got)
	}
	if final[cSessionPending] != 0 || final[cAborts] != 0 || final[cDropped] != 0 || final[cTenantAborted] != 0 {
		res.fail(1, "session pending=%d aborts=%d, writer dropped=%d, tenant aborted=%d",
			final[cSessionPending], final[cAborts], final[cDropped], final[cTenantAborted])
	}

	// Crash restart on the closed log.
	fsBefore = e.fs.counts()
	if res.tr != nil {
		res.tr.open(spRestart, nowNs())
	}
	t0 = nowNs()
	l, err := stablelog.Open(logPath, stablelog.WithFS(e.fs))
	tOpen := nowNs()
	if err != nil {
		return nil, fmt.Errorf("%s reopen: %w", w.name(), err)
	}
	defer l.Close()
	if res.tr != nil {
		res.tr.add(spOpen, t0, tOpen, 0)
	}
	rebuilt, rst, err := inst.restart(l, res.tr)
	recoverNs := nowNs() - t0
	if res.tr != nil {
		res.tr.close(t0 + recoverNs)
	}
	res.Ops++
	if err != nil {
		res.fail(1, "recover: %v", err)
	}
	fsRecover := e.fs.counts().sub(fsBefore)
	segs := l.Segments()
	if o.verify && err == nil {
		res.verifyRestart(rebuilt, liveDigests)
	}
	if tap != nil {
		res.verifyAckOrder(tap, segs)
	}
	rebuilt = nil

	// Retention and rewinds.
	check := 0
	if o.verify {
		check = rewindChecks
	}
	if res.tr != nil {
		res.tr.open(spMaintain, nowNs())
	}
	mst, err := inst.maintain(l, rand.New(rand.NewSource(o.seed^0x5eed)), res.tr, check)
	if res.tr != nil {
		res.tr.close(nowNs())
	}
	res.Ops += len(mst.rewindNs)
	if err != nil {
		res.fail(1, "retain/rewind: %v", err)
	} else if o.verify {
		res.verifyRewinds(inst, mst.checks)
	}

	calibNs += calibrate()

	if o.verify {
		if err := res.verifyDurable(inst, o, cutPath, cutLen, cutAcked, segs); err != nil {
			return nil, err
		}
	}

	// End-to-end metrics. Every time is reported at reference machine
	// speed: divided by how much slower than the reference this round's
	// machine ran the calibration kernel (calib.go), three runs of which are
	// spread over the round. On a shared box slow spells last minutes and
	// move every time of a run, and of the runs after it, by tens of percent
	// (README.md, Noise); the kernel meets the same spell. It is the
	// benchmark's own code: no change to the program under test moves it.
	// The factor is bench.speed_factor; times the reported value gives the
	// time as measured. Ratios, bytes and the heap are reported as measured.
	speed := float64(calibNs) / 3 / calibRefNs
	ckptNsPerEpoch := float64(passNs) / float64(epochs)
	baseNsPerEpoch := float64(baseNs) / float64(baseEpochs)
	m := res.E2E
	m["setup_s"] = float64(setupNs) / 1e9 / speed
	m["epochs_per_s"] = float64(epochs) / (float64(passNs) / 1e9) * speed
	m["overhead_pct"] = 100 * (ckptNsPerEpoch - baseNsPerEpoch) / baseNsPerEpoch
	m["cpu_ms_per_epoch"] = float64(cpuPass) / 1e6 / float64(epochs) / speed
	m["pause_p99_ms"] = quantileNs(p.pauses, 0.99, 1e6) / speed
	m["log_bytes_per_epoch"] = float64(size1-size0) / float64(epochs)
	m["live_heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	m["recover_s"] = float64(recoverNs) / 1e9 / speed
	m["rewind_p50_ms"] = quantileNs(mst.rewindNs, 0.50, 1e6) / speed

	res.Exact["epochs"] = float64(epochs)
	res.Exact["log_bytes_per_epoch"] = m["log_bytes_per_epoch"]
	layerMetrics(res, layerInput{
		p: p, c: c, fsPass: fsPass, fsRecover: fsRecover, fsyncNs: fsyncNs,
		baseNsPerEpoch: baseNsPerEpoch, speed: speed, openNs: tOpen - t0,
		tap: tap, rst: rst, mst: mst, setup: inst.setupStats(), final: final,
		allocBytes: float64(ms1.TotalAlloc - ms0.TotalAlloc), mallocs: float64(ms1.Mallocs - ms0.Mallocs),
	})
	return res, nil
}

// runBase builds a twin graph and runs half of the base pass on it.
func runBase(w workload, o roundOpts) (epochs int, ns int64, err error) {
	base, err := w.newBase(o.seed, o.scale)
	if err != nil {
		return 0, 0, fmt.Errorf("%s base: %w", w.name(), err)
	}
	if base == nil {
		return 0, 0, nil
	}
	runtime.GC()
	t0 := nowNs()
	epochs, err = base()
	ns = nowNs() - t0
	if err != nil {
		return 0, 0, fmt.Errorf("%s base pass: %w", w.name(), err)
	}
	return epochs, ns, nil
}

const (
	logName = "bench.log"
	// rewindSamples is the number of RewindTo calls a round times.
	rewindSamples = 32
	// rewindChecks is how many of them a verify round rebuilds and compares
	// against the twin; a Build of the largest graph costs as much as the
	// rewind itself.
	rewindChecks = 4
)

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// verifyRestart requires the recovered state to equal the live state at the
// last epoch, unit by unit.
func (r *roundResult) verifyRestart(rebuilt []map[uint64]ckpt.Restorable, live []digest) {
	if len(rebuilt) != len(live) {
		r.fail(1, "recovered %d units, %d live", len(rebuilt), len(live))
		return
	}
	bad := 0
	for i, objs := range rebuilt {
		if digestRebuilt(objs) != live[i] {
			bad++
		}
	}
	if bad > 0 {
		r.fail(1, "recovered state differs from the live state in %d of %d units", bad, len(live))
	}
}

// verifyAckOrder requires that when each epoch's ack fired, an fsync had
// already covered its whole segment.
func (r *roundResult) verifyAckOrder(tap *ackTap, segs []stablelog.SegmentInfo) {
	early := 0
	for _, s := range segs {
		if s.Epoch >= uint64(len(tap.syncedAt)) || tap.syncedAt[s.Epoch] < 0 {
			continue // the setup anchor's neighbours; every pass epoch is counted above
		}
		if end := s.Offset + segmentHeaderSize + int64(s.Length); tap.syncedAt[s.Epoch] < end {
			early++
		}
	}
	if early > 0 {
		r.fail(early, "%d epochs were acked before an fsync covered them", early)
	}
}

// verifyRewinds compares rewound states against the truth at their epochs.
func (r *roundResult) verifyRewinds(inst instance, checks []rewindCheck) {
	var ask []uint64
	for _, c := range checks {
		if c.want == nil {
			ask = append(ask, c.epoch)
		}
	}
	sort.Slice(ask, func(i, j int) bool { return ask[i] < ask[j] })
	truth := map[uint64]digest{}
	if len(ask) > 0 {
		ds, err := inst.stateAt(ask)
		if err != nil {
			r.fail(1, "twin replay: %v", err)
			return
		}
		for i, e := range ask {
			truth[e] = ds[i]
		}
	}
	for _, c := range checks {
		want := truth[c.epoch]
		if c.want != nil {
			want = *c.want
		}
		if c.got != want {
			r.fail(1, "state rewound to epoch %d differs from the state live at that epoch", c.epoch)
		}
	}
}

// verifyDurable is the acked ⇒ durable check. A process kill keeps the page
// cache, so the check discards the unflushed bytes itself: cut is a copy of
// the log truncated at the fsynced offset the filesystem decorator had seen
// at the instant of the simulated power cut. The check opens it
// WithTruncateTorn, recovers it, and requires every epoch acked by then
// present.
func (r *roundResult) verifyDurable(inst instance, o roundOpts, cut string, cutLen, cutAcked int64, segs []stablelog.SegmentInfo) error {
	if o.sabotage {
		if err := flipByte(cut, cutLen/2); err != nil {
			return err
		}
	}
	r.Ops++
	l, err := stablelog.Open(cut, stablelog.WithTruncateTorn())
	if err != nil {
		r.fail(1, "open of the power-cut copy: %v", err)
		return nil
	}
	defer l.Close()
	// Acks fire in log order, so the acked epochs are a prefix of the
	// segments (the setup anchors included in cutAcked come first).
	if got := int64(len(l.Segments())); got < cutAcked {
		r.fail(int(cutAcked-got), "power cut at fsynced offset %d keeps %d segments, %d were acked", cutLen, got, cutAcked)
		return nil
	}
	for i, s := range l.Segments() {
		if s.Epoch != segs[i].Epoch {
			r.fail(1, "power-cut copy segment %d has epoch %d, want %d", i+1, s.Epoch, segs[i].Epoch)
			return nil
		}
	}
	if _, _, err := inst.restart(l, nil); err != nil {
		r.fail(1, "recover of the power-cut copy: %v", err)
	}
	return nil
}

func copyPrefix(src, dst string, n int64) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.CopyN(out, in, n); err != nil {
		out.Close()
		return fmt.Errorf("copy log prefix: %w", err)
	}
	return out.Close()
}

func flipByte(path string, off int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= 0x40
	_, err = f.WriteAt(b[:], off)
	return err
}
