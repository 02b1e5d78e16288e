package difftest

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ickpt/ckpt"
	"ickpt/internal/faultfs"
	"ickpt/stablelog"
	"ickpt/wire"
)

// SnapshotDump captures the population's current object graph as a canonical
// dump without disturbing it: the traversal goes through IndexRoots (which
// never touches a modified flag) and each object is recorded directly. The
// result is byte-compatible with LiveDump and RebuildDump, but unlike
// LiveDump it can be taken mid-replay — dirty strategies keep working
// afterwards because no flag is consumed.
func SnapshotDump(pop *Population) ([]byte, error) {
	roots := append([]ckpt.Checkpointable(nil), pop.Roots...)
	ckpt.SortRoots(roots)
	idx, err := ckpt.IndexRoots(roots...)
	if err != nil {
		return nil, err
	}
	dump := make(map[uint64]dumpRec, idx.Len())
	var e wire.Encoder
	idx.Each(func(id uint64, o ckpt.Checkpointable) {
		e.Reset()
		o.Record(&e)
		dump[id] = dumpRec{typeID: o.CheckpointTypeID(), payload: append([]byte(nil), e.Bytes()...)}
	})
	return canonical(dump), nil
}

// rebuilderDump materializes the rebuilder's current state and returns its
// canonical dump, comparable with SnapshotDump/LiveDump output.
func rebuilderDump(rb *ckpt.Rebuilder) ([]byte, error) {
	objs, err := rb.Build(ckpt.NewDomain())
	if err != nil {
		return nil, err
	}
	dump := make(map[uint64]dumpRec, len(objs))
	var e wire.Encoder
	for id, o := range objs {
		e.Reset()
		o.Record(&e)
		dump[id] = dumpRec{typeID: o.CheckpointTypeID(), payload: append([]byte(nil), e.Bytes()...)}
	}
	return canonical(dump), nil
}

// ReplayStates replays tr under one engine and strategy like Replay, but
// additionally captures a SnapshotDump of the live population immediately
// after every checkpoint. states[i] is the live graph as of bodies[i]
// (epoch i+1): the ground truth RewindTo(i+1) must reproduce.
func ReplayStates(tr Trace, engine string, st Strategy) (bodies [][]byte, states [][]byte, pop *Population, err error) {
	pop, err = tr.Build()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: build: %w", tr.Name, err)
	}
	eng := pop.engine(engine)
	if eng == nil {
		return nil, nil, nil, fmt.Errorf("%s: no engine %q", tr.Name, engine)
	}
	roots := append([]ckpt.Checkpointable(nil), pop.Roots...)
	ckpt.SortRoots(roots)
	defer st.pin()()

	take := newTake(pop, eng, st, roots, &bodies)
	wrapped := func(mode ckpt.Mode, phase string) error {
		if err := take(mode, phase); err != nil {
			return err
		}
		dump, err := SnapshotDump(pop)
		if err != nil {
			return fmt.Errorf("snapshot after epoch %d: %w", len(bodies), err)
		}
		states = append(states, dump)
		return nil
	}
	if err := pop.Replay(wrapped); err != nil {
		return nil, nil, nil, fmt.Errorf("%s/%s/%s: replay: %w", tr.Name, engine, st.Name, err)
	}
	return bodies, states, pop, nil
}

// appendBodies writes checkpoint bodies to the log under their own header
// epochs (difftest epochs are 1..N in body order, for every strategy).
func appendBodies(l *stablelog.Log, bodies [][]byte) error {
	for i, b := range bodies {
		info, err := ckpt.InspectBodyKinds(b, nil)
		if err != nil {
			return fmt.Errorf("inspect body %d: %w", i, err)
		}
		if _, err := l.Append(info.Mode, info.Epoch, b); err != nil {
			return fmt.Errorf("append body %d (epoch %d): %w", i, info.Epoch, err)
		}
	}
	return nil
}

// RewindPolicy is the retention schedule RunRewind ages each stream with: a
// short window so most of the history leaves the window, one incremental of
// tail per retained full.
var RewindPolicy = stablelog.Binomial{Window: 2, Tail: 1}

// RunRewind proves rewind equivalence for tr across every engine x strategy:
// each stream's bodies go into a stablelog, RewindTo(e) must rebuild a state
// byte-identical to the live graph captured at epoch e — for every epoch
// while the log is intact, and again for every retained epoch after a
// Binomial retention pass, with every aged-out epoch failing as
// ErrEpochUnavailable naming retained neighbors.
func RunRewind(t *testing.T, tr Trace) {
	t.Helper()
	refPop, err := tr.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	for _, eng := range refPop.Engines {
		for _, st := range Strategies {
			t.Run(eng.Name+"/"+st.Name, func(t *testing.T) {
				bodies, states, pop, err := ReplayStates(tr, eng.Name, st)
				if err != nil {
					t.Fatalf("replay: %v", err)
				}
				if len(bodies) != len(states) {
					t.Fatalf("%d bodies but %d state snapshots", len(bodies), len(states))
				}
				// The final snapshot must agree with the classic LiveDump —
				// ties SnapshotDump to the existing ground truth.
				live, err := LiveDump(pop)
				if err != nil {
					t.Fatalf("live dump: %v", err)
				}
				if !bytes.Equal(states[len(states)-1], live) {
					t.Fatalf("final snapshot differs from live dump")
				}

				m := faultfs.NewMem()
				l, err := stablelog.Create("rewind.log", stablelog.WithFS(m))
				if err != nil {
					t.Fatalf("create log: %v", err)
				}
				defer l.Close()
				if err := appendBodies(l, bodies); err != nil {
					t.Fatal(err)
				}

				rb := ckpt.NewRebuilder(pop.Registry)
				checkEpoch := func(e uint64) {
					t.Helper()
					stats, err := l.RewindTo(rb, e)
					if err != nil {
						t.Fatalf("RewindTo(%d): %v", e, err)
					}
					dump, err := rebuilderDump(rb)
					if err != nil {
						t.Fatalf("rebuild at epoch %d: %v", e, err)
					}
					if !bytes.Equal(dump, states[e-1]) {
						t.Fatalf("RewindTo(%d) state differs from live state at epoch %d (%d replay segments from base %d)",
							e, e, stats.Segments, stats.BaseEpoch)
					}
				}
				// Every epoch, walking backwards then forwards so the same
				// rebuilder crosses full boundaries in both directions.
				for e := uint64(len(bodies)); e >= 1; e-- {
					checkEpoch(e)
				}
				for e := uint64(1); e <= uint64(len(bodies)); e++ {
					checkEpoch(e)
				}

				// Age the history out and re-prove every survivor.
				if err := l.Retain(RewindPolicy); err != nil {
					t.Fatalf("retain: %v", err)
				}
				idx, err := l.EpochIndex()
				if err != nil {
					t.Fatalf("epoch index: %v", err)
				}
				retained := make(map[uint64]bool)
				for _, e := range idx.Epochs() {
					retained[e] = true
				}
				if !retained[uint64(len(bodies))] {
					t.Fatalf("retention dropped the latest epoch %d", len(bodies))
				}
				for e := uint64(1); e <= uint64(len(bodies)); e++ {
					if retained[e] {
						checkEpoch(e)
						continue
					}
					_, err := l.RewindTo(rb, e)
					var ua *stablelog.EpochUnavailableError
					if !errors.As(err, &ua) || !errors.Is(err, stablelog.ErrEpochUnavailable) {
						t.Fatalf("RewindTo(%d) after retention: got %v, want EpochUnavailableError", e, err)
					}
					if ua.Before != 0 && !retained[ua.Before] {
						t.Fatalf("RewindTo(%d): Before=%d is not retained", e, ua.Before)
					}
					if ua.After != 0 && !retained[ua.After] {
						t.Fatalf("RewindTo(%d): After=%d is not retained", e, ua.After)
					}
					if ua.Before >= e || (ua.After != 0 && ua.After <= e) {
						t.Fatalf("RewindTo(%d): neighbors (%d, %d) do not bracket it", e, ua.Before, ua.After)
					}
				}
			})
		}
	}
}
