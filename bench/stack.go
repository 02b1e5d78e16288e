package main

import (
	"math/rand"
	"path/filepath"

	"ickpt/ckpt"
	"ickpt/stablelog"
)

// stack is the log side three of the four workloads share: a log on the
// counting filesystem, a session, and an AsyncWriter whose acks reach the
// session through the ack seam.
type stack struct {
	log  *stablelog.Log
	sess *ckpt.Session
	aw   *stablelog.AsyncWriter
	acks *ackTap
}

func newStack(e *env, sess *ckpt.Session, capacity int, opts ...stablelog.AsyncOption) (*stack, error) {
	path := filepath.Join(e.dir, logName)
	lg, err := stablelog.Create(path, stablelog.WithFS(e.fs))
	if err != nil {
		return nil, err
	}
	acks := newAckTap(sess, e.fs, path, capacity)
	opts = append(opts, stablelog.WithAck(acks.ack))
	return &stack{log: lg, sess: sess, acks: acks, aw: stablelog.NewAsyncWriter(lg, opts...)}, nil
}

func (s *stack) close() error {
	err := s.aw.Close()
	if cerr := s.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// nextMode picks the mode of the next checkpoint of a tracker-driven
// workload: Full when the workload's cadence says so (full) or when the
// session or the tracker has degraded, and counts the degradations.
func (s *stack) nextMode(trk *ckpt.Tracker, c *counts, full bool) ckpt.Mode {
	mode := s.sess.NextMode(trk.NextMode(ckpt.Incremental))
	if trk.Degraded() {
		c[cTrackerDegraded]++
	}
	if mode == ckpt.Full && !full {
		c[cTrackerForcedFull]++
	}
	if full {
		mode = ckpt.Full
	}
	return mode
}

// addCounts adds the session's and the writer's counters to c.
func (s *stack) addCounts(c *counts) {
	c.addSession(s.sess)
	st := s.aw.Stats()
	c[cAcked] += int64(st.Acked)
	c[cDropped] += int64(st.Dropped)
	c[cRetried] += int64(st.Retried)
}

// restartSingle is the crash restart of a single-stream log: Recover the
// latest run and Build it.
func restartSingle(l *stablelog.Log, reg *ckpt.Registry, tr *tracer) ([]map[uint64]ckpt.Restorable, restartStats, error) {
	var st restartStats
	rb := ckpt.NewRebuilder(reg)
	t0 := nowNs()
	if err := l.Recover(rb); err != nil {
		return nil, st, err
	}
	t1 := nowNs()
	objs, err := rb.Build(ckpt.NewDomain())
	t2 := nowNs()
	if err != nil {
		return nil, st, err
	}
	if tr != nil {
		tr.add(spRecover, t0, t1, 0)
		tr.add(spBuild, t1, t2, 0)
	}
	if run, err := l.RecoveryRun(); err == nil {
		st.segments = int64(len(run))
		for _, s := range run {
			st.bytes += int64(s.Length)
		}
	}
	st.objects = int64(len(objs))
	return []map[uint64]ckpt.Restorable{objs}, st, nil
}

func payloadBytes(segs []stablelog.SegmentInfo) int64 {
	var n int64
	for _, s := range segs {
		n += int64(s.Length)
	}
	return n
}

// maintainSingle applies the retention policy, then times samples RewindTo
// calls with one reused rebuilder. The targets are spread evenly, from a
// seeded phase, over the policy's window — the epochs a user can rewind to
// with epoch precision. (A p50 over all retained epochs would sit on the
// boundary between two populations, the long chains of the window and the
// short ones of the old anchors, and flip between them from seed to seed.)
// A verify round also rewinds to check more epochs, drawn from everything
// retained and starting with the oldest, and returns their digests.
func maintainSingle(l *stablelog.Log, reg *ckpt.Registry, policy stablelog.Binomial, samples int, rng *rand.Rand, tr *tracer, check int) (maintStats, error) {
	var st maintStats
	st.rawBytes = payloadBytes(l.Segments())
	t0 := nowNs()
	if err := l.Retain(policy); err != nil {
		return st, err
	}
	t1 := nowNs()
	st.retainNs = t1 - t0
	if tr != nil {
		tr.add(spRetain, t0, t1, 0)
	}
	st.retainedBytes = payloadBytes(l.Segments())
	idx, err := l.EpochIndex()
	if err != nil {
		return st, err
	}
	epochs := idx.Epochs()
	head := epochs[len(epochs)-1]
	window := epochs
	for i, e := range epochs {
		if head-e < uint64(policy.Window) {
			window = epochs[i:]
			break
		}
	}
	rb := ckpt.NewRebuilder(reg)
	stride := float64(len(window)) / float64(samples)
	phase := rng.Float64() * stride
	for i := 0; i < samples; i++ {
		target := window[int(phase+float64(i)*stride)]
		t0 := nowNs()
		rs, err := l.RewindTo(rb, target)
		t1 := nowNs()
		if err != nil {
			return st, err
		}
		if tr != nil {
			tr.add(spRewind, t0, t1, target)
		}
		st.rewindNs = append(st.rewindNs, t1-t0)
		st.rewindSegs = append(st.rewindSegs, int64(rs.Segments))
		st.rewindBytes = append(st.rewindBytes, rs.Bytes)
	}
	for i := 0; i < check; i++ {
		target := epochs[0]
		if i > 0 {
			target = epochs[rng.Intn(len(epochs))]
		}
		if _, err := l.RewindTo(rb, target); err != nil {
			return st, err
		}
		objs, err := rb.Build(ckpt.NewDomain())
		if err != nil {
			return st, err
		}
		st.checks = append(st.checks, rewindCheck{epoch: target, got: digestRebuilt(objs)})
	}
	return st, nil
}

// twinStates is the ground truth for rewinds on a workload whose state is a
// function of the seed and the number of steps: it drives a fresh twin with
// step and digests roots at the given ascending epochs. The setup anchor is
// epoch 1, so the state at epoch e is the twin after e-1 steps.
func twinStates(epochs []uint64, step func(), roots []ckpt.Checkpointable) ([]digest, error) {
	out := make([]digest, 0, len(epochs))
	done := uint64(1)
	for _, e := range epochs {
		for ; done < e; done++ {
			step()
		}
		d, err := digestRoots(roots)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}
