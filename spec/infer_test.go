package spec_test

import (
	"bytes"
	"errors"
	"testing"

	"ickpt/ckpt"
	"ickpt/spec"
)

// observeTwice drains the fixture, applies mutate, observes, drains again,
// applies mutate again, observes again — simulating two iterations of a
// phase.
func observeTwice(t *testing.T, obs *spec.Observer, r *root, mutate func(*root)) {
	t.Helper()
	drain(t, r)
	for i := 0; i < 2; i++ {
		mutate(r)
		if err := obs.Observe(r); err != nil {
			t.Fatalf("Observe: %v", err)
		}
		drain(t, r)
	}
}

func TestInferLastOnlyPattern(t *testing.T) {
	cat := catalog(t)
	obs, err := spec.NewObserver(cat, "Root")
	if err != nil {
		t.Fatal(err)
	}
	d := ckpt.NewDomain()
	r := build(d, 4, 4)

	// Phase behaviour: mutate only the last element of list A.
	observeTwice(t, obs, r, func(r *root) {
		last := r.A
		for last.Next != nil {
			last = last.Next
		}
		last.V0++
		last.Info.SetModified()
	})

	pat := obs.Pattern("inferred")
	// Root, Meta never dirty -> class-level clean. Elem dirty (in A).
	if pat.Classes["Root"] != spec.ClassUnmodified {
		t.Error("Root not inferred unmodified")
	}
	if pat.Classes["Meta"] != spec.ClassUnmodified {
		t.Error("Meta not inferred unmodified")
	}
	if _, ok := pat.Classes["Elem"]; ok {
		t.Error("Elem wrongly inferred unmodified")
	}
	// A: last-only. B: never dirty but Elem is dirty elsewhere ->
	// ChildUnmodified.
	if pat.Children["Root.A"] != spec.LastElementOnly {
		t.Errorf("Root.A inferred %v, want LastElementOnly", pat.Children["Root.A"])
	}
	if pat.Children["Root.B"] != spec.ChildUnmodified {
		t.Errorf("Root.B inferred %v, want ChildUnmodified", pat.Children["Root.B"])
	}

	// The inferred pattern must compile and validate.
	p, err := spec.Compile(cat, "Root", pat, spec.WithVerify())
	if err != nil {
		t.Fatalf("Compile(inferred): %v", err)
	}
	if p.Stats().LastOnlyLists != 1 {
		t.Errorf("LastOnlyLists = %d, want 1", p.Stats().LastOnlyLists)
	}
}

func TestInferredPatternMatchesGenericBytes(t *testing.T) {
	cat := catalog(t)
	obs, err := spec.NewObserver(cat, "Root")
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(r *root) {
		// Touch the whole of list B and nothing else.
		for e := r.B; e != nil; e = e.Next {
			e.V1--
			e.Info.SetModified()
		}
	}

	// Profile run.
	d := ckpt.NewDomain()
	r := build(d, 3, 3)
	observeTwice(t, obs, r, mutate)
	pat := obs.Pattern("profileB")

	// Fresh twins checked under the inferred pattern.
	r1, r2 := twin(t, 3, 3, mutate)
	want, _ := genericBody(t, r1, ckpt.Incremental)
	p, err := spec.Compile(cat, "Root", pat, spec.WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := planBody(t, p, r2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Error("inferred-pattern plan body differs from generic body")
	}
}

func TestInferredPatternDetectsBehaviourChange(t *testing.T) {
	cat := catalog(t)
	obs, err := spec.NewObserver(cat, "Root")
	if err != nil {
		t.Fatal(err)
	}
	d := ckpt.NewDomain()
	r := build(d, 3, 3)
	// Profile a phase that only touches list A's head.
	observeTwice(t, obs, r, func(r *root) {
		r.A.V0++
		r.A.Info.SetModified()
	})
	pat := obs.Pattern("onlyA")
	p, err := spec.Compile(cat, "Root", pat, spec.WithVerify())
	if err != nil {
		t.Fatal(err)
	}

	// The program evolves: the phase now touches B. Verify mode catches
	// the stale profile.
	r.B.V0++
	r.B.Info.SetModified()
	w := ckpt.NewWriter()
	w.Start(ckpt.Incremental)
	if err := p.Execute(w, r); !errors.Is(err, spec.ErrPatternViolated) {
		t.Errorf("Execute with stale profile = %v, want ErrPatternViolated", err)
	}
}

func TestObserverZeroObservations(t *testing.T) {
	// With nothing observed, the strongest consistent pattern declares
	// every class unmodified and needs no edge claims. It must still
	// compile: the all-unmodified plan is the legitimate "nothing changed
	// this phase" specialization.
	cat := catalog(t)
	obs, err := spec.NewObserver(cat, "Root")
	if err != nil {
		t.Fatal(err)
	}
	pat := obs.Pattern("empty")
	for _, cn := range []string{"Root", "Elem", "Meta"} {
		if pat.Classes[cn] != spec.ClassUnmodified {
			t.Errorf("class %s not declared unmodified with zero observations", cn)
		}
	}
	if len(pat.Children) != 0 {
		t.Errorf("zero observations produced edge claims: %v", pat.Children)
	}
	if _, err := spec.Compile(cat, "Root", pat, spec.WithVerify()); err != nil {
		t.Errorf("Compile(zero-observation pattern): %v", err)
	}
}

func TestObserverBothListsFinalOnly(t *testing.T) {
	// A phase that dirties only the final element of each list: both edges
	// earn LastElementOnly, the strongest positional claim.
	cat := catalog(t)
	obs, err := spec.NewObserver(cat, "Root")
	if err != nil {
		t.Fatal(err)
	}
	d := ckpt.NewDomain()
	r := build(d, 3, 3)
	observeTwice(t, obs, r, func(r *root) {
		for _, head := range []*elem{r.A, r.B} {
			last := head
			for last.Next != nil {
				last = last.Next
			}
			last.V1--
			last.Info.SetModified()
		}
	})
	pat := obs.Pattern("finals")
	if pat.Children["Root.A"] != spec.LastElementOnly || pat.Children["Root.B"] != spec.LastElementOnly {
		t.Errorf("list edges = %v, want LastElementOnly on both", pat.Children)
	}
	p, err := spec.Compile(cat, "Root", pat, spec.WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats().LastOnlyLists != 2 {
		t.Errorf("LastOnlyLists = %d, want 2", p.Stats().LastOnlyLists)
	}
}

func TestObserverReobservationAfterWatchRearm(t *testing.T) {
	// A profile taken by walking (Observe) claims Root.A is last-only.
	// The phase then evolves: after a Tracker Watch re-arm, a non-final
	// element is dirtied and re-observed through the mark-queue drain
	// (ObserveDirty). The positionless evidence must dissolve the stale
	// positional claim regardless of observation order — the bag carries no
	// positions, so no edge reaching Elem may keep an edge-level claim.
	cat := catalog(t)
	obs, err := spec.NewObserver(cat, "Root")
	if err != nil {
		t.Fatal(err)
	}
	d := ckpt.NewDomain()
	r := build(d, 3, 3)
	observeTwice(t, obs, r, func(r *root) {
		last := r.A
		for last.Next != nil {
			last = last.Next
		}
		last.V0++
		last.Info.SetModified()
	})
	if pat := obs.Pattern("walkOnly"); pat.Children["Root.A"] != spec.LastElementOnly {
		t.Fatalf("walk profile = %v, want Root.A last-only before re-arm", pat.Children)
	}

	tr := ckpt.NewTracker()
	d.AttachTracker(tr)
	if err := tr.Watch(r); err != nil {
		t.Fatal(err)
	}
	r.A.V0++ // head of A: a non-final position
	r.A.Info.Mark()
	dirty := tr.Take()
	if len(dirty) != 1 {
		t.Fatalf("Take = %d objects, want 1", len(dirty))
	}
	if err := obs.ObserveDirty(dirty...); err != nil {
		t.Fatal(err)
	}

	pat := obs.Pattern("rearmed")
	if _, claimed := pat.Children["Root.A"]; claimed {
		t.Errorf("stale last-only claim survived positionless re-observation: %v", pat.Children)
	}
	if len(pat.Children) != 0 {
		t.Errorf("edge claims through bag-dirty classes survived: %v", pat.Children)
	}
	if _, ok := pat.Classes["Elem"]; ok {
		t.Error("Elem wrongly declared unmodified after dirty observation")
	}
	for _, cn := range []string{"Root", "Meta"} {
		if pat.Classes[cn] != spec.ClassUnmodified {
			t.Errorf("class %s lost its unmodified claim", cn)
		}
	}

	// The weakened pattern must capture the evolved behaviour byte-exactly.
	mutate := func(r *root) {
		r.A.V0++
		r.A.Info.SetModified()
	}
	r1, r2 := twin(t, 3, 3, mutate)
	want, _ := genericBody(t, r1, ckpt.Incremental)
	p, err := spec.Compile(cat, "Root", pat, spec.WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := planBody(t, p, r2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Error("re-armed pattern plan body differs from generic body")
	}
}

func TestObserverUnknownRoot(t *testing.T) {
	if _, err := spec.NewObserver(catalog(t), "Nope"); !errors.Is(err, spec.ErrClass) {
		t.Errorf("NewObserver = %v, want ErrClass", err)
	}
}

func TestObserverNilRoot(t *testing.T) {
	obs, err := spec.NewObserver(catalog(t), "Root")
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Observe(nil); err != nil {
		t.Errorf("Observe(nil) = %v", err)
	}
	if pat := obs.Pattern("nil"); len(pat.Classes) != 3 || len(pat.Children) != 0 {
		t.Errorf("Observe(nil) left a trace in the pattern: %+v", pat)
	}
}
