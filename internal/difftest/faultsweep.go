package difftest

import (
	"errors"
	"fmt"
	"sync/atomic"

	"ickpt/ckpt"
	"ickpt/ckpt/parfold"
)

// This file extends the differential harness with fault injection: a replay
// where one checkpoint step fails — the fold errors mid-traversal, or the
// body is produced and then lost on the way to stable storage — and the
// epoch commit/abort protocol (ckpt.Session) must recover: the abort
// re-marks the flags the failed epoch cleared, one retake recaptures them,
// and recovery from the surviving bodies is byte-identical to the live
// graph. FaultSilent replays the pre-protocol behavior (drop the body,
// tell no one) so the sweep demonstrably catches the lost-update bug the
// protocol exists to fix.

// ErrInjected marks a fault introduced by the sweep.
var ErrInjected = errors.New("difftest: injected fault")

// Fault selects where the injected failure strikes.
type Fault int

const (
	// FaultFold fails the fold mid-traversal: some objects are already
	// encoded (flags cleared) when the epoch dies.
	FaultFold Fault = iota
	// FaultSink completes the body, then the stable write fails and the
	// sink acknowledges the epoch with an error, aborting it.
	FaultSink
	// FaultSilent reproduces the legacy bug: the body is dropped with no
	// abort and no retake. The cleared flags are a lost update; recovery
	// from the surviving bodies is stale.
	FaultSilent
)

func (f Fault) String() string {
	switch f {
	case FaultFold:
		return "fold"
	case FaultSink:
		return "sink"
	case FaultSilent:
		return "silent"
	}
	return fmt.Sprintf("Fault(%d)", int(f))
}

// FaultResult is one fault-injected replay's outcome.
type FaultResult struct {
	// Bodies are the checkpoint bodies that survived (committed epochs and,
	// for FaultFold/FaultSink, the post-abort retake), in stream order.
	Bodies [][]byte
	// Pop is the final population, for live-vs-rebuilt comparison.
	Pop *Population
	// Session is the session that governed the replay.
	Session *ckpt.Session
	// Shadow is the delta shadow cache (delta strategies only, else nil):
	// the sweep asserts the abort path resolved its staged payloads.
	Shadow *ckpt.ShadowCache
	// DroppedRecords counts the records of the discarded body (sink faults
	// only): 0 means the injected drop lost nothing.
	DroppedRecords int
	// Steps is the trace's checkpoint count.
	Steps int
}

// FaultReplay replays tr under one engine and strategy with a fault of the
// given kind injected at checkpoint step failStep (0-based). Every
// successful epoch is committed through a ckpt.Session as if a durable
// write had been acknowledged; the faulted epoch is aborted (except
// FaultSilent) and retaken at the mode Session.NextMode selects.
func FaultReplay(tr Trace, engine string, st Strategy, failStep int, kind Fault) (*FaultResult, error) {
	pop, err := tr.Build()
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", tr.Name, err)
	}
	var eng *EngineSpec
	for i := range pop.Engines {
		if pop.Engines[i].Name == engine {
			eng = &pop.Engines[i]
			break
		}
	}
	if eng == nil {
		return nil, fmt.Errorf("%s: no engine %q", tr.Name, engine)
	}

	roots := append([]ckpt.Checkpointable(nil), pop.Roots...)
	ckpt.SortRoots(roots)
	defer st.pin()()
	// The fold fault strikes at a mid-order root, so the epoch dies with
	// earlier roots already encoded and their flags cleared.
	victim := roots[len(roots)/2].CheckpointInfo().ID()

	sess := ckpt.NewSession()
	res := &FaultResult{Pop: pop, Session: sess}

	var cache *ckpt.ShadowCache
	if st.Delta {
		cache = ckpt.NewShadowCache(deltaMin)
		res.Shadow = cache
	}
	// One writer or one folder takes every checkpoint of the replay, the
	// faulted one and its retake included, so its epoch counter is the
	// stream's: a failed fold consumes its epoch on either.
	var (
		wr *ckpt.Writer
		rf *replayFolder
	)
	if st.Workers <= 0 {
		wr = ckpt.NewWriter(ckpt.WithSession(sess), ckpt.WithShadowCache(cache))
	} else {
		rf = st.folder(parfold.WithSession(sess), parfold.WithShadowCache(cache))
	}
	var trk *ckpt.Tracker
	if st.Dirty {
		trk = ckpt.NewTracker()
		if pop.Domain != nil {
			pop.Domain.AttachTracker(trk)
		}
	}
	watched := false

	// takeOnce folds one checkpoint, optionally with the fault armed: a fold
	// fault on traversal steps (one mid-order root errors), an emit fault on
	// dirty steps (the middle object of the dirty set errors). It returns the
	// epoch the body was (or would have been) taken under.
	takeOnce := func(mode ckpt.Mode, phase string, inject bool) ([]byte, uint64, error) {
		if st.Dirty {
			if !watched {
				if err := trk.Watch(roots...); err != nil {
					return nil, 0, err
				}
				watched = true
			}
			mode = trk.NextMode(mode)
		}

		if st.Dirty && mode == ckpt.Incremental {
			// Dirty drain: the failure strikes mid-queue, so the epoch dies
			// with some dirty objects already encoded and their flags
			// cleared — the abort must re-mark AND re-enqueue them. When the
			// drain turns out too small for the armed index (an empty or
			// stale-heavy queue, e.g. a fixpoint iteration that changed
			// nothing), the epoch dies between the drain and the body
			// completion instead — same mid-epoch outcome.
			emit := eng.emit(phase)
			var fired atomic.Bool
			if inject {
				fail := int64(trk.Dirty() / 2)
				var seen atomic.Int64
				inner := emit
				emit = func(em *ckpt.Emitter, o ckpt.Checkpointable) error {
					if seen.Add(1)-1 == fail {
						fired.Store(true)
						return fmt.Errorf("%w: emit of object %d", ErrInjected, o.CheckpointInfo().ID())
					}
					return inner(em, o)
				}
			}
			if rf == nil {
				wr.Start(ckpt.Incremental)
				if err := wr.CheckpointDirty(trk, emit); err != nil {
					// Unemitted tail requeued; the retake's Start aborts the
					// epoch through the session, re-enqueueing the head.
					return nil, wr.Epoch(), err
				}
				if inject && !fired.Load() {
					// Mid-body death after the drain: the retake's Start
					// abandons the epoch through the session.
					return nil, wr.Epoch(), fmt.Errorf("%w: post-drain", ErrInjected)
				}
				body, _, err := wr.Finish()
				if err != nil {
					return nil, wr.Epoch(), err
				}
				return append([]byte(nil), body...), wr.Epoch(), nil
			}
			body, _, err := rf.FoldDirty(trk, emit)
			if err := errors.Join(err, rf.sharded()); err != nil {
				// The folder has requeued the dirty set and aborted the epoch.
				return nil, rf.Epoch(), err
			}
			if inject && !fired.Load() {
				// The completed body dies before it could matter; abort the
				// pending epoch as a failed write would.
				sess.Ack(rf.Epoch(), fmt.Errorf("%w: post-drain", ErrInjected))
				return nil, rf.Epoch(), fmt.Errorf("%w: post-drain", ErrInjected)
			}
			return append([]byte(nil), body...), rf.Epoch(), nil
		}

		fold := eng.fold(mode, phase)
		if inject {
			inner := fold
			fold = func(w *ckpt.Writer, r ckpt.Checkpointable) error {
				if r.CheckpointInfo().ID() == victim {
					return fmt.Errorf("%w: fold of object %d", ErrInjected, victim)
				}
				return inner(w, r)
			}
		}
		var body []byte
		var ep uint64
		if rf == nil {
			b, err := seqFold(wr, mode, fold, roots)
			if err != nil {
				// A body abandoned mid-fold is aborted through the session
				// by the retake's Start.
				return nil, wr.Epoch(), err
			}
			body, ep = append([]byte(nil), b...), wr.Epoch()
		} else {
			rf.cur = fold
			b, _, err := rf.Fold(mode, roots)
			if err := errors.Join(err, rf.sharded()); err != nil {
				// The folder has already aborted the epoch through the session.
				return nil, rf.Epoch(), err
			}
			body, ep = append([]byte(nil), b...), rf.Epoch()
		}
		if st.Dirty {
			// The traversal recaptured everything live; rebuild the index.
			if err := trk.Watch(roots...); err != nil {
				return nil, ep, err
			}
		}
		return body, ep, nil
	}

	step := -1
	take := func(mode ckpt.Mode, phase string) error {
		step++
		if step != failStep {
			body, ep, err := takeOnce(mode, phase, false)
			if err != nil {
				return err
			}
			res.Bodies = append(res.Bodies, body)
			sess.Ack(ep, nil) // durable write acknowledged
			return nil
		}
		switch kind {
		case FaultFold:
			if _, _, err := takeOnce(mode, phase, true); err == nil {
				return fmt.Errorf("step %d: injected fold fault did not fire", step)
			}
		case FaultSink, FaultSilent:
			body, ep, err := takeOnce(mode, phase, false)
			if err != nil {
				return err
			}
			info, err := ckpt.InspectBodyKinds(body, nil)
			if err != nil {
				return err
			}
			res.DroppedRecords = info.Records
			if kind == FaultSilent {
				// Legacy behavior: the body is lost, nobody is told. The
				// epoch stays pending forever; its cleared flags are never
				// re-marked and no retake happens.
				return nil
			}
			sess.Ack(ep, ErrInjected) // failed write acknowledged: abort
		}
		// The abort re-marked every flag the lost epoch cleared; one retake
		// recaptures them (Full if the session degraded, which needs a
		// resolver that loses ids — not the case here).
		body, ep, err := takeOnce(sess.NextMode(mode), phase, false)
		if err != nil {
			return err
		}
		res.Bodies = append(res.Bodies, body)
		sess.Ack(ep, nil)
		return nil
	}
	if err := pop.Replay(take); err != nil {
		return nil, fmt.Errorf("%s/%s/%s: fault replay: %w", tr.Name, engine, st.Name, err)
	}
	res.Steps = step + 1
	if failStep > step {
		return nil, fmt.Errorf("failStep %d out of range: trace has %d steps", failStep, res.Steps)
	}
	return res, nil
}
