package derivetest_test

import (
	"bytes"
	"os"
	"testing"

	"ickpt/ckpt"
	"ickpt/derive"
	"ickpt/internal/derivetest"
	"ickpt/reflectckpt"
	"ickpt/spec"
)

// build constructs a project with n tasks.
func build(d *ckpt.Domain, n int) *derivetest.Project {
	p := &derivetest.Project{Info: ckpt.NewInfo(d), Budget: 12.5}
	p.Name.V = "repro"
	p.Owner = &derivetest.Person{Info: ckpt.NewInfo(d), Name: "dana"}
	p.Owner.Karma.V = 3
	var head *derivetest.Task
	for i := n - 1; i >= 0; i-- {
		t := &derivetest.Task{
			Info:   ckpt.NewInfo(d),
			Title:  "task",
			Points: int32(i * 3),
			Flags:  uint16(i),
			Blob:   []byte{byte(i), byte(i + 1)},
		}
		t.Next = head
		head = t
	}
	p.Tasks = head
	return p
}

func checkpoint(t *testing.T, mode ckpt.Mode, fn func(w *ckpt.Writer) error) ([]byte, ckpt.Stats) {
	t.Helper()
	w := ckpt.NewWriter()
	w.Start(mode)
	if err := fn(w); err != nil {
		t.Fatal(err)
	}
	body, stats, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), body...), stats
}

func TestGeneratedFileFresh(t *testing.T) {
	src, err := derive.Generate(derive.Options{Dir: "."})
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile("zz_derived_ckpt.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, onDisk) {
		t.Error("zz_derived_ckpt.go is stale; re-run cmd/ckptderive")
	}
}

func TestDerivedProtocolMatchesReflection(t *testing.T) {
	d1, d2 := ckpt.NewDomain(), ckpt.NewDomain()
	p1, p2 := build(d1, 4), build(d2, 4)

	virt, vstats := checkpoint(t, ckpt.Full, func(w *ckpt.Writer) error { return w.Checkpoint(p1) })
	en := reflectckpt.NewEngine()
	refl, _ := checkpoint(t, ckpt.Full, func(w *ckpt.Writer) error { return en.Checkpoint(w, p2) })
	if !bytes.Equal(virt, refl) {
		t.Error("derived Record differs from reflection engine output")
	}
	if vstats.Recorded != 6 { // project + person + 4 tasks
		t.Errorf("recorded = %d, want 6", vstats.Recorded)
	}
}

func TestDerivedCatalogPlanMatchesGeneric(t *testing.T) {
	d1, d2 := ckpt.NewDomain(), ckpt.NewDomain()
	p1, p2 := build(d1, 5), build(d2, 5)

	// Drain, mutate identically.
	checkpoint(t, ckpt.Incremental, func(w *ckpt.Writer) error { return w.Checkpoint(p1) })
	checkpoint(t, ckpt.Incremental, func(w *ckpt.Writer) error { return w.Checkpoint(p2) })
	mutate := func(p *derivetest.Project) {
		p.Name.Set(&p.Info, "renamed")
		p.Tasks.Next.Points = 99
		p.Tasks.Next.Info.SetModified()
		p.Owner.Karma.Set(&p.Owner.Info, 4)
	}
	mutate(p1)
	mutate(p2)

	want, _ := checkpoint(t, ckpt.Incremental, func(w *ckpt.Writer) error { return w.Checkpoint(p1) })

	plan, err := spec.Compile(derivetest.Catalog(), "Project", nil)
	if err != nil {
		t.Fatalf("Compile over derived catalog: %v", err)
	}
	got, _ := checkpoint(t, ckpt.Incremental, func(w *ckpt.Writer) error { return plan.Execute(w, p2) })
	if !bytes.Equal(want, got) {
		t.Error("derived-catalog plan body differs from generic body")
	}
}

func TestDerivedRestoreRoundTrip(t *testing.T) {
	d := ckpt.NewDomain()
	p := build(d, 3)
	full, _ := checkpoint(t, ckpt.Full, func(w *ckpt.Writer) error { return w.Checkpoint(p) })

	// Mutate, take an incremental.
	p.Budget = 99.25
	p.Done = true
	p.Info.SetModified()
	p.Tasks.Blob = []byte("xyz")
	p.Tasks.Info.SetModified()
	incr, _ := checkpoint(t, ckpt.Incremental, func(w *ckpt.Writer) error { return w.Checkpoint(p) })

	rb := ckpt.NewRebuilder(derivetest.Registry())
	if err := rb.Apply(full); err != nil {
		t.Fatal(err)
	}
	if err := rb.Apply(incr); err != nil {
		t.Fatal(err)
	}
	objs, err := rb.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	got := objs[p.Info.ID()].(*derivetest.Project)
	if got.Name.V != p.Name.V || got.Budget != p.Budget || got.Done != p.Done {
		t.Errorf("restored project = %+v", got)
	}
	if got.Owner.Name != "dana" || got.Owner.Karma.V != 3 {
		t.Errorf("restored owner = %+v", got.Owner)
	}
	lt, gt := p.Tasks, got.Tasks
	for lt != nil && gt != nil {
		if lt.Title != gt.Title || lt.Points != gt.Points || lt.Flags != gt.Flags ||
			!bytes.Equal(lt.Blob, gt.Blob) {
			t.Errorf("task mismatch: %+v vs %+v", lt, gt)
		}
		lt, gt = lt.Next, gt.Next
	}
	if (lt == nil) != (gt == nil) {
		t.Error("task list length mismatch")
	}
}

// TestDeriveInferSpecializePipeline exercises the fully automatic pipeline
// the paper's conclusion sketches: the protocol is derived from
// annotations, the phase's modification pattern is inferred by observation,
// and the inferred pattern compiles to a specialized plan that is
// byte-equivalent to the generic driver and prunes the untouched state.
func TestDeriveInferSpecializePipeline(t *testing.T) {
	cat := derivetest.Catalog()
	obs, err := spec.NewObserver(cat, "Project")
	if err != nil {
		t.Fatal(err)
	}

	// The "phase": only task points change; owner and project stay put.
	phase := func(p *derivetest.Project) {
		for task := p.Tasks; task != nil; task = task.Next {
			task.Points++
			task.Info.SetModified()
		}
	}

	// Profile run.
	d := ckpt.NewDomain()
	p := build(d, 4)
	checkpoint(t, ckpt.Incremental, func(w *ckpt.Writer) error { return w.Checkpoint(p) })
	for i := 0; i < 2; i++ {
		phase(p)
		if err := obs.Observe(p); err != nil {
			t.Fatal(err)
		}
		checkpoint(t, ckpt.Incremental, func(w *ckpt.Writer) error { return w.Checkpoint(p) })
	}
	pat := obs.Pattern("taskPhase")
	if pat.Classes["Project"] != spec.ClassUnmodified || pat.Classes["Person"] != spec.ClassUnmodified {
		t.Errorf("inferred pattern misses clean classes: %+v", pat.Classes)
	}

	// Specialized execution on twins.
	d1, d2 := ckpt.NewDomain(), ckpt.NewDomain()
	p1, p2 := build(d1, 4), build(d2, 4)
	checkpoint(t, ckpt.Incremental, func(w *ckpt.Writer) error { return w.Checkpoint(p1) })
	checkpoint(t, ckpt.Incremental, func(w *ckpt.Writer) error { return w.Checkpoint(p2) })
	phase(p1)
	phase(p2)

	want, wstats := checkpoint(t, ckpt.Incremental, func(w *ckpt.Writer) error { return w.Checkpoint(p1) })
	// Production plan (no verify): verify-mode plans deliberately keep
	// traversing pruned subtrees to check them, so visit counts would
	// not drop.
	plan, err := spec.Compile(cat, "Project", pat)
	if err != nil {
		t.Fatal(err)
	}
	got, gstats, err := func() ([]byte, ckpt.Stats, error) {
		w := ckpt.NewWriter()
		w.Start(ckpt.Incremental)
		if err := plan.Execute(w, p2); err != nil {
			return nil, ckpt.Stats{}, err
		}
		b, s, err := w.Finish()
		return append([]byte(nil), b...), s, err
	}()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Error("inferred+derived specialized body differs from generic body")
	}
	// Specialization pruned the Person subtree and the Project test.
	if gstats.Visited >= wstats.Visited {
		t.Errorf("specialized visited %d >= generic %d", gstats.Visited, wstats.Visited)
	}
}

// TestDerivedCatalogCodegen completes the pipeline: generated specialized
// source from the derived catalog must render and parse.
func TestDerivedCatalogCodegen(t *testing.T) {
	plan, err := spec.Compile(derivetest.Catalog(), "Project", nil)
	if err != nil {
		t.Fatal(err)
	}
	src, err := spec.GenerateGo(plan, spec.GenConfig{Package: "derivetest", FuncName: "CheckpointProject"})
	if err != nil {
		t.Fatalf("GenerateGo over derived catalog: %v", err)
	}
	if !bytes.Contains(src, []byte("func CheckpointProject(o *Project, em *ckpt.Emitter)")) {
		t.Errorf("unexpected generated source:\n%s", src)
	}
}
