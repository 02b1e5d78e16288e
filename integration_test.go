package ickpt_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ickpt/ckpt"
	"ickpt/internal/analysis"
	"ickpt/internal/harness"
	"ickpt/internal/synth"
	"ickpt/spec"
	"ickpt/stablelog"
)

// TestIntegrationSynthThroughStablelog exercises the full stack: a
// synthetic population checkpointed with a different engine every round,
// persisted to a stablelog, crashed with a torn tail, recovered, and
// compared object-for-object against the live state.
func TestIntegrationSynthThroughStablelog(t *testing.T) {
	shape := synth.Shape{Structures: 40, ListLen: 5, Kind: synth.Ints10}
	w := synth.Build(shape)
	path := filepath.Join(t.TempDir(), "synth.log")
	lg, err := stablelog.Create(path)
	if err != nil {
		t.Fatal(err)
	}

	wr := ckpt.NewWriter()
	appendCkpt := func(mode ckpt.Mode, run func(*ckpt.Writer) error) {
		t.Helper()
		wr.Start(mode)
		if err := run(wr); err != nil {
			t.Fatal(err)
		}
		body, _, err := wr.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lg.Append(mode, wr.Epoch(), body); err != nil {
			t.Fatal(err)
		}
	}

	// Base full checkpoint with the generic engine.
	appendCkpt(ckpt.Full, w.CheckpointGeneric)

	// Incremental rounds, rotating through the engines (their bodies are
	// interchangeable byte-for-byte).
	rng := rand.New(rand.NewSource(5))
	mod := synth.ModPattern{Percent: 50, ModifiableLists: 3}
	plan, err := synth.CompilePlan(shape.Kind, mod.SpecPattern(shape.Kind), spec.WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	key := synth.GenKey(shape.Kind, mod.SpecPattern(shape.Kind).Name)
	engines := []func(*ckpt.Writer) error{
		w.CheckpointGeneric,
		func(wr *ckpt.Writer) error { return w.CheckpointPlan(plan, wr) },
		func(wr *ckpt.Writer) error { return w.CheckpointGenerated(key, wr) },
	}
	for round := 0; round < 6; round++ {
		w.Mutate(rng, mod)
		appendCkpt(ckpt.Incremental, engines[round%len(engines)])
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash: a torn partial segment lands at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("SEGMgarbage-partial-write")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover.
	lg2, err := stablelog.Open(path, stablelog.WithTruncateTorn())
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	if got := len(lg2.Segments()); got != 7 {
		t.Fatalf("recovered %d segments, want 7", got)
	}
	rb := ckpt.NewRebuilder(synth.Registry())
	if err := lg2.Recover(rb); err != nil {
		t.Fatal(err)
	}
	objs, err := rb.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	verifySynthState(t, w, objs)

	// Compaction preserves the recoverable state.
	if err := lg2.Retain(stablelog.KeepLastRun{}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	rb2 := ckpt.NewRebuilder(synth.Registry())
	if err := lg2.Recover(rb2); err != nil {
		t.Fatal(err)
	}
	objs2, err := rb2.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	verifySynthState(t, w, objs2)
}

// verifySynthState compares every live object against the rebuilt set.
func verifySynthState(t *testing.T, w *synth.Workload, objs map[uint64]ckpt.Restorable) {
	t.Helper()
	if len(objs) != w.Objects() {
		t.Fatalf("rebuilt %d objects, want %d", len(objs), w.Objects())
	}
	for _, root := range w.Roots() {
		s := root.(*synth.Structure10)
		got, ok := objs[s.Info.ID()].(*synth.Structure10)
		if !ok {
			t.Fatalf("root %d rebuilt as %T", s.Info.ID(), objs[s.Info.ID()])
		}
		for li := 0; li < synth.NumLists; li++ {
			le, ge := s.List(li), got.List(li)
			for le != nil && ge != nil {
				if le.Info.ID() != ge.Info.ID() || le.V0 != ge.V0 || le.V5 != ge.V5 {
					t.Fatalf("element mismatch: live(%d %d %d) rebuilt(%d %d %d)",
						le.Info.ID(), le.V0, le.V5, ge.Info.ID(), ge.V0, ge.V5)
				}
				le, ge = le.Next, ge.Next
			}
			if (le == nil) != (ge == nil) {
				t.Fatal("list length mismatch")
			}
		}
	}
}

// TestIntegrationAnalysisResume runs the analysis engine with per-iteration
// checkpoints into a log, then resumes from the log into a fresh engine and
// proves the fixpoints are already converged.
func TestIntegrationAnalysisResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "analysis.log")
	e, div, err := harness.NewImageEngine(1)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := stablelog.Create(path)
	if err != nil {
		t.Fatal(err)
	}

	wr := ckpt.NewWriter()
	roots := e.Roots()
	wr.Start(ckpt.Full)
	for _, r := range roots {
		if err := wr.Checkpoint(r); err != nil {
			t.Fatal(err)
		}
	}
	body, _, err := wr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lg.Append(ckpt.Full, wr.Epoch(), body); err != nil {
		t.Fatal(err)
	}

	ck := func(phase string, iter int) error {
		wr.Start(ckpt.Incremental)
		fn, ok := analysis.Generated(phase)
		if !ok {
			t.Fatalf("no generated routine %q", phase)
		}
		em := wr.Emitter()
		for _, r := range roots {
			fn(r, em)
		}
		body, _, err := wr.Finish()
		if err != nil {
			return err
		}
		_, err = lg.Append(ckpt.Incremental, wr.Epoch(), body)
		return err
	}
	if _, err := e.RunAll(div, ck); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume into a fresh engine.
	lg2, err := stablelog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	rb := ckpt.NewRebuilder(analysis.Registry())
	if err := lg2.Recover(rb); err != nil {
		t.Fatal(err)
	}
	objs, err := rb.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	e2, div2, err := harness.NewImageEngine(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.RestoreFrom(objs); err != nil {
		t.Fatal(err)
	}
	stats, err := e2.RunAll(div2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stats {
		if st.Changed != 0 {
			t.Errorf("phase %s iteration %d changed %d annotations after resume",
				st.Phase, st.Iteration, st.Changed)
		}
	}

	// The restored annotations match a from-scratch run exactly.
	e3, div3, err := harness.NewImageEngine(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e3.RunAll(div3, nil); err != nil {
		t.Fatal(err)
	}
	s2, s3 := e2.Statements(), e3.Statements()
	if len(s2) != len(s3) {
		t.Fatal("statement count mismatch")
	}
	for i := range s2 {
		a2, a3 := e2.Attr(s2[i]), e3.Attr(s3[i])
		if a2.BT.BT.Ann != a3.BT.BT.Ann || a2.ET.ET.Ann != a3.ET.ET.Ann {
			t.Fatalf("statement %d: resumed annotations differ from fresh run", i)
		}
	}
}
