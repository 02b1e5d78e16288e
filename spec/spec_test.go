package spec_test

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ickpt/ckpt"
	"ickpt/spec"
	"ickpt/wire"
)

// Fixture: a root with two linked lists and one plain child, shaped like the
// paper's synthetic compound structures.

var (
	typeRoot = ckpt.TypeIDOf("spectest.Root")
	typeElem = ckpt.TypeIDOf("spectest.Elem")
	typeMeta = ckpt.TypeIDOf("spectest.Meta")
)

type elem struct {
	Info   ckpt.Info
	V0, V1 int64
	Next   *elem
}

func (e *elem) CheckpointInfo() *ckpt.Info    { return &e.Info }
func (e *elem) CheckpointTypeID() ckpt.TypeID { return typeElem }
func (e *elem) Record(enc *wire.Encoder) {
	enc.Varint(e.V0)
	enc.Varint(e.V1)
	enc.Uvarint(idOf(e.Next))
}
func (e *elem) Fold(w *ckpt.Writer) error {
	if e.Next != nil {
		return w.Checkpoint(e.Next)
	}
	return nil
}

type meta struct {
	Info ckpt.Info
	Tag  string
}

func (m *meta) CheckpointInfo() *ckpt.Info    { return &m.Info }
func (m *meta) CheckpointTypeID() ckpt.TypeID { return typeMeta }
func (m *meta) Record(enc *wire.Encoder)      { enc.String(m.Tag) }
func (m *meta) Fold(*ckpt.Writer) error       { return nil }

type root struct {
	Info ckpt.Info
	N    int64
	A    *elem
	B    *elem
	Meta *meta
}

func (r *root) CheckpointInfo() *ckpt.Info    { return &r.Info }
func (r *root) CheckpointTypeID() ckpt.TypeID { return typeRoot }
func (r *root) Record(enc *wire.Encoder) {
	enc.Varint(r.N)
	enc.Uvarint(idOf(r.A))
	enc.Uvarint(idOf(r.B))
	if r.Meta != nil {
		enc.Uvarint(r.Meta.Info.ID())
	} else {
		enc.Uvarint(ckpt.NilID)
	}
}
func (r *root) Fold(w *ckpt.Writer) error {
	if r.A != nil {
		if err := w.Checkpoint(r.A); err != nil {
			return err
		}
	}
	if r.B != nil {
		if err := w.Checkpoint(r.B); err != nil {
			return err
		}
	}
	if r.Meta != nil {
		return w.Checkpoint(r.Meta)
	}
	return nil
}

func idOf(e *elem) uint64 {
	if e == nil {
		return ckpt.NilID
	}
	return e.Info.ID()
}

// catalog builds the specialization catalog for the fixture types.
func catalog(t testing.TB) *spec.Catalog {
	cat := spec.NewCatalog()
	cat.MustRegister(spec.Class{
		Name:   "Elem",
		TypeID: typeElem,
		GoType: "*elem",
		Fields: []spec.Field{
			{Name: "V0", Kind: spec.Int, Go: "o.V0"},
			{Name: "V1", Kind: spec.Int, Go: "o.V1"},
		},
		Children: []spec.Child{
			{Name: "Next", Class: "Elem", Go: "o.Next"},
		},
		NextChild: 0,
	}, spec.Binding{
		Info:   func(o any) *ckpt.Info { return &o.(*elem).Info },
		Record: func(o any, e *wire.Encoder) { o.(*elem).Record(e) },
		Child: func(o any, i int) any {
			if n := o.(*elem).Next; n != nil {
				return n
			}
			return nil
		},
	})
	cat.MustRegister(spec.Class{
		Name:      "Meta",
		TypeID:    typeMeta,
		GoType:    "*meta",
		Fields:    []spec.Field{{Name: "Tag", Kind: spec.String, Go: "o.Tag"}},
		NextChild: -1,
	}, spec.Binding{
		Info:   func(o any) *ckpt.Info { return &o.(*meta).Info },
		Record: func(o any, e *wire.Encoder) { o.(*meta).Record(e) },
	})
	cat.MustRegister(spec.Class{
		Name:   "Root",
		TypeID: typeRoot,
		GoType: "*root",
		Fields: []spec.Field{{Name: "N", Kind: spec.Int, Go: "o.N"}},
		Children: []spec.Child{
			{Name: "A", Class: "Elem", List: true, Go: "o.A"},
			{Name: "B", Class: "Elem", List: true, Go: "o.B"},
			{Name: "Meta", Class: "Meta", Go: "o.Meta"},
		},
		NextChild: -1,
	}, spec.Binding{
		Info:   func(o any) *ckpt.Info { return &o.(*root).Info },
		Record: func(o any, e *wire.Encoder) { o.(*root).Record(e) },
		Child: func(o any, i int) any {
			r := o.(*root)
			switch i {
			case 0:
				if r.A != nil {
					return r.A
				}
			case 1:
				if r.B != nil {
					return r.B
				}
			case 2:
				if r.Meta != nil {
					return r.Meta
				}
			}
			return nil
		},
	})
	return cat
}

// build constructs a root with two lists of the given lengths.
func build(d *ckpt.Domain, lenA, lenB int) *root {
	r := &root{Info: ckpt.NewInfo(d), N: 7}
	mk := func(n int) *elem {
		var head *elem
		for i := n - 1; i >= 0; i-- {
			e := &elem{Info: ckpt.NewInfo(d), V0: int64(i), V1: int64(-i)}
			e.Next = head
			head = e
		}
		return head
	}
	r.A = mk(lenA)
	r.B = mk(lenB)
	r.Meta = &meta{Info: ckpt.NewInfo(d), Tag: "m"}
	return r
}

// drain takes one incremental checkpoint to clear all initial flags.
func drain(t testing.TB, r *root) {
	w := ckpt.NewWriter()
	w.Start(ckpt.Incremental)
	if err := w.Checkpoint(r); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
}

// genericBody checkpoints r with the generic driver.
func genericBody(t testing.TB, r *root, mode ckpt.Mode) ([]byte, ckpt.Stats) {
	w := ckpt.NewWriter()
	w.Start(mode)
	if err := w.Checkpoint(r); err != nil {
		t.Fatal(err)
	}
	b, stats, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), b...), stats
}

// planBody checkpoints r with a compiled plan.
func planBody(t testing.TB, p *spec.Plan, r *root) ([]byte, ckpt.Stats, error) {
	w := ckpt.NewWriter()
	w.Start(p.Mode())
	err := p.Execute(w, r)
	if err != nil {
		return nil, ckpt.Stats{}, err
	}
	b, stats, ferr := w.Finish()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return append([]byte(nil), b...), stats, nil
}

// twin builds two identical universes and applies the same mutation to both.
func twin(t testing.TB, lenA, lenB int, mutate func(*root)) (*root, *root) {
	d1, d2 := ckpt.NewDomain(), ckpt.NewDomain()
	r1, r2 := build(d1, lenA, lenB), build(d2, lenA, lenB)
	drain(t, r1)
	drain(t, r2)
	if mutate != nil {
		mutate(r1)
		mutate(r2)
	}
	return r1, r2
}

func TestPlanMatchesGenericStructureOnly(t *testing.T) {
	mutate := func(r *root) {
		r.A.V0 = 100
		r.A.Info.SetModified()
		r.B.Next.V1 = -100
		r.B.Next.Info.SetModified()
		r.Meta.Tag = "changed"
		r.Meta.Info.SetModified()
	}
	r1, r2 := twin(t, 3, 3, mutate)

	want, wstats := genericBody(t, r1, ckpt.Incremental)

	p, err := spec.Compile(catalog(t), "Root", nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	got, gstats, err := planBody(t, p, r2)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("plan body differs from generic body\n  generic %x\n  plan    %x", want, got)
	}
	if wstats.Recorded != gstats.Recorded || wstats.Visited != gstats.Visited {
		t.Errorf("stats differ: generic %+v plan %+v", wstats, gstats)
	}
}

func TestPlanFullModeMatchesGeneric(t *testing.T) {
	r1, r2 := twin(t, 2, 4, nil)
	want, _ := genericBody(t, r1, ckpt.Full)

	p, err := spec.Compile(catalog(t), "Root", nil, spec.WithMode(ckpt.Full))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := planBody(t, p, r2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Error("full-mode plan body differs from generic full body")
	}
}

func TestPatternPrunesCleanSubtrees(t *testing.T) {
	// Phase modifies only list A; B and Meta stay clean.
	pat := &spec.Pattern{
		Name: "phaseA",
		Children: map[string]spec.ChildMod{
			"Root.B":    spec.ChildUnmodified,
			"Root.Meta": spec.ChildUnmodified,
		},
	}
	mutate := func(r *root) {
		for e := r.A; e != nil; e = e.Next {
			e.V0 += 5
			e.Info.SetModified()
		}
		r.N = 8
		r.Info.SetModified()
	}
	r1, r2 := twin(t, 5, 5, mutate)
	want, _ := genericBody(t, r1, ckpt.Incremental)

	p, err := spec.Compile(catalog(t), "Root", pat)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := planBody(t, p, r2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Error("pruned plan body differs from generic body")
	}
	// Pruning must shrink the traversal: root + 5 A-elements.
	if stats.Visited != 6 {
		t.Errorf("plan visited %d objects, want 6", stats.Visited)
	}
	ps := p.Stats()
	if ps.PrunedEdges != 2 {
		t.Errorf("PrunedEdges = %d, want 2", ps.PrunedEdges)
	}
}

func TestClassUnmodifiedElidesTest(t *testing.T) {
	// Root itself is declared unmodified, but its children may be dirty:
	// the Root node stays in the traversal with its test and record code
	// elided (a recordNever node). Meta is also clean and — having no
	// dirty descendants — is pruned outright: pruning subsumes elision.
	pat := &spec.Pattern{
		Name: "noRootNoMeta",
		Classes: map[string]spec.ClassMod{
			"Root": spec.ClassUnmodified,
			"Meta": spec.ClassUnmodified,
		},
	}
	r1, r2 := twin(t, 2, 2, func(r *root) {
		r.A.V0 = 1
		r.A.Info.SetModified()
	})
	want, _ := genericBody(t, r1, ckpt.Incremental)

	p, err := spec.Compile(catalog(t), "Root", pat)
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats().ElidedTests != 1 {
		t.Errorf("ElidedTests = %d, want 1 (Root)", p.Stats().ElidedTests)
	}
	if p.Stats().PrunedEdges != 1 {
		t.Errorf("PrunedEdges = %d, want 1 (Root.Meta)", p.Stats().PrunedEdges)
	}
	got, _, err := planBody(t, p, r2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Error("elided-test plan body differs from generic body")
	}
}

func TestLastElementOnly(t *testing.T) {
	pat := &spec.Pattern{
		Name: "tails",
		Children: map[string]spec.ChildMod{
			"Root.A":    spec.LastElementOnly,
			"Root.B":    spec.LastElementOnly,
			"Root.Meta": spec.ChildUnmodified,
		},
	}
	mutate := func(r *root) {
		last := r.A
		for last.Next != nil {
			last = last.Next
		}
		last.V0 = 77
		last.Info.SetModified()
		// B's last element stays unmodified: still legal under the
		// pattern ("may be modified").
	}
	r1, r2 := twin(t, 5, 5, mutate)
	want, _ := genericBody(t, r1, ckpt.Incremental)

	p, err := spec.Compile(catalog(t), "Root", pat)
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats().LastOnlyLists != 2 {
		t.Errorf("LastOnlyLists = %d, want 2", p.Stats().LastOnlyLists)
	}
	got, stats, err := planBody(t, p, r2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Error("last-only plan body differs from generic body")
	}
	// Only root + the two last elements are visited.
	if stats.Visited != 3 {
		t.Errorf("visited = %d, want 3", stats.Visited)
	}
}

func TestVerifyDetectsPatternViolation(t *testing.T) {
	pat := &spec.Pattern{
		Name:    "noMeta",
		Classes: map[string]spec.ClassMod{"Meta": spec.ClassUnmodified},
		// Keep Meta in the traversal so the violation is observable:
		// without an override the clean subtree would be pruned.
	}
	// Force traversal by making Meta the root: compile a plan for Meta.
	p, err := spec.Compile(catalog(t), "Meta", pat, spec.WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	d := ckpt.NewDomain()
	m := &meta{Info: ckpt.NewInfo(d), Tag: "x"} // new object: dirty

	w := ckpt.NewWriter()
	w.Start(ckpt.Incremental)
	if err := p.Execute(w, m); !errors.Is(err, spec.ErrPatternViolated) {
		t.Errorf("Execute = %v, want ErrPatternViolated", err)
	}
}

func TestVerifyDetectsDirtyNonFinalElement(t *testing.T) {
	pat := &spec.Pattern{
		Name: "tails",
		Children: map[string]spec.ChildMod{
			"Root.A":    spec.LastElementOnly,
			"Root.B":    spec.ChildUnmodified,
			"Root.Meta": spec.ChildUnmodified,
		},
	}
	d := ckpt.NewDomain()
	r := build(d, 4, 1)
	drain(t, r)
	r.A.Next.V0 = 9 // dirty a non-final element
	r.A.Next.Info.SetModified()

	p, err := spec.Compile(catalog(t), "Root", pat, spec.WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	w := ckpt.NewWriter()
	w.Start(ckpt.Incremental)
	if err := p.Execute(w, r); !errors.Is(err, spec.ErrPatternViolated) {
		t.Errorf("Execute = %v, want ErrPatternViolated", err)
	}
}

func TestExecuteModeMismatch(t *testing.T) {
	p, err := spec.Compile(catalog(t), "Root", nil) // incremental
	if err != nil {
		t.Fatal(err)
	}
	d := ckpt.NewDomain()
	r := build(d, 1, 1)
	w := ckpt.NewWriter()
	w.Start(ckpt.Full)
	if err := p.Execute(w, r); err == nil {
		t.Error("Execute with mismatched mode succeeded")
	}
}

func TestCompileErrors(t *testing.T) {
	cat := catalog(t)
	if _, err := spec.Compile(cat, "Nope", nil); !errors.Is(err, spec.ErrClass) {
		t.Errorf("unknown root = %v, want ErrClass", err)
	}
	bad := &spec.Pattern{Name: "bad", Classes: map[string]spec.ClassMod{"Nope": spec.ClassUnmodified}}
	if _, err := spec.Compile(cat, "Root", bad); !errors.Is(err, spec.ErrPattern) {
		t.Errorf("unknown pattern class = %v, want ErrPattern", err)
	}
	bad2 := &spec.Pattern{Name: "bad2", Children: map[string]spec.ChildMod{"Root.Nope": spec.ChildUnmodified}}
	if _, err := spec.Compile(cat, "Root", bad2); !errors.Is(err, spec.ErrPattern) {
		t.Errorf("unknown pattern child = %v, want ErrPattern", err)
	}
	bad3 := &spec.Pattern{Name: "bad3", Children: map[string]spec.ChildMod{"Root.Meta": spec.LastElementOnly}}
	if _, err := spec.Compile(cat, "Root", bad3); !errors.Is(err, spec.ErrPattern) {
		t.Errorf("LastElementOnly on non-list = %v, want ErrPattern", err)
	}
}

func TestCatalogRegistrationErrors(t *testing.T) {
	cat := spec.NewCatalog()
	cl := spec.Class{Name: "X", TypeID: 1, NextChild: -1}
	b := spec.Binding{
		Info:   func(any) *ckpt.Info { return nil },
		Record: func(any, *wire.Encoder) {},
	}
	if err := cat.Register(cl, b); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := cat.Register(cl, b); !errors.Is(err, spec.ErrClass) {
		t.Errorf("duplicate Register = %v, want ErrClass", err)
	}
	if err := cat.Register(spec.Class{Name: "", NextChild: -1}, b); !errors.Is(err, spec.ErrClass) {
		t.Errorf("empty name = %v, want ErrClass", err)
	}
	if err := cat.Register(spec.Class{Name: "Y", NextChild: -1}, spec.Binding{}); !errors.Is(err, spec.ErrBinding) {
		t.Errorf("missing accessors = %v, want ErrBinding", err)
	}
	// Next pointer that is not last.
	badNext := spec.Class{
		Name: "Z", NextChild: 0,
		Children: []spec.Child{
			{Name: "Next", Class: "Z"},
			{Name: "Other", Class: "X"},
		},
	}
	bc := b
	bc.Child = func(any, int) any { return nil }
	if err := cat.Register(badNext, bc); !errors.Is(err, spec.ErrClass) {
		t.Errorf("next-not-last = %v, want ErrClass", err)
	}
	// Children but no Child accessor.
	noChildAcc := spec.Class{
		Name: "W", NextChild: -1,
		Children: []spec.Child{{Name: "C", Class: "X"}},
	}
	if err := cat.Register(noChildAcc, b); !errors.Is(err, spec.ErrBinding) {
		t.Errorf("missing Child accessor = %v, want ErrBinding", err)
	}
}

func TestCatalogValidateUnknownChildClass(t *testing.T) {
	cat := spec.NewCatalog()
	b := spec.Binding{
		Info:   func(any) *ckpt.Info { return nil },
		Record: func(any, *wire.Encoder) {},
		Child:  func(any, int) any { return nil },
	}
	cat.MustRegister(spec.Class{
		Name: "A", NextChild: -1,
		Children: []spec.Child{{Name: "C", Class: "Missing"}},
	}, b)
	if err := cat.Validate(); !errors.Is(err, spec.ErrClass) {
		t.Errorf("Validate = %v, want ErrClass", err)
	}
	if _, err := spec.Compile(cat, "A", nil); !errors.Is(err, spec.ErrClass) {
		t.Errorf("Compile = %v, want ErrClass", err)
	}
}

func TestPlanString(t *testing.T) {
	pat := &spec.Pattern{
		Name: "phaseA",
		Children: map[string]spec.ChildMod{
			"Root.B":    spec.ChildUnmodified,
			"Root.Meta": spec.ChildUnmodified,
		},
	}
	p, err := spec.Compile(catalog(t), "Root", pat)
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	for _, want := range []string{"Root", "if modified { record }", "pruned", ".A -> list"} {
		if !strings.Contains(s, want) {
			t.Errorf("Plan.String() missing %q:\n%s", want, s)
		}
	}
}

// TestPatternFormat pins Pattern.Format's text: sorted classes, then sorted
// child edges, MayModify and Inherit entries left out.
func TestPatternFormat(t *testing.T) {
	p := &spec.Pattern{
		Name: "phase",
		Classes: map[string]spec.ClassMod{
			"B": spec.ClassUnmodified,
			"C": spec.MayModify,
			"A": spec.ClassUnmodified,
		},
		Children: map[string]spec.ChildMod{
			"A.Y": spec.LastElementOnly,
			"A.Z": spec.Inherit,
			"A.X": spec.ChildUnmodified,
		},
	}
	want := "pattern phase {\n" +
		"    class A unmodified\n" +
		"    class B unmodified\n" +
		"    child A.X unmodified\n" +
		"    child A.Y last-only\n" +
		"}\n"
	if got := p.Format(); got != want {
		t.Errorf("Format() =\n%s\nwant\n%s", got, want)
	}

	obs, err := spec.NewObserver(catalog(t), "Root")
	if err != nil {
		t.Fatal(err)
	}
	want = "pattern empty-profile {\n" +
		"    class Elem unmodified\n" +
		"    class Meta unmodified\n" +
		"    class Root unmodified\n" +
		"}\n"
	if got := obs.Pattern("empty-profile").Format(); got != want {
		t.Errorf("inferred pattern Format() =\n%s\nwant\n%s", got, want)
	}
}

// TestQuickPlanAlwaysMatchesGeneric fuzzes modification patterns against
// truthful mutations: for a randomly chosen declared pattern and mutations
// that respect it, the specialized body must equal the generic body.
func TestQuickPlanAlwaysMatchesGeneric(t *testing.T) {
	cat := catalog(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lenA := 1 + rng.Intn(6)
		lenB := 1 + rng.Intn(6)

		// Random declared pattern.
		mods := []spec.ChildMod{spec.Inherit, spec.ChildUnmodified, spec.LastElementOnly}
		modA := mods[rng.Intn(3)]
		modB := mods[rng.Intn(3)]
		metaClean := rng.Intn(2) == 0
		pat := &spec.Pattern{Name: "fuzz", Children: map[string]spec.ChildMod{}}
		if modA != spec.Inherit {
			pat.Children["Root.A"] = modA
		}
		if modB != spec.Inherit {
			pat.Children["Root.B"] = modB
		}
		if metaClean {
			pat.Classes = map[string]spec.ClassMod{"Meta": spec.ClassUnmodified}
		}

		// Truthful mutation respecting the pattern.
		mutate := func(r *root) {
			touchList := func(head *elem, mod spec.ChildMod) {
				switch mod {
				case spec.ChildUnmodified:
					return
				case spec.LastElementOnly:
					last := head
					for last.Next != nil {
						last = last.Next
					}
					if rng.Intn(2) == 0 {
						last.V0 = rng.Int63n(100)
						last.Info.SetModified()
					}
				default:
					for e := head; e != nil; e = e.Next {
						if rng.Intn(2) == 0 {
							e.V1 = rng.Int63n(100)
							e.Info.SetModified()
						}
					}
				}
			}
			touchList(r.A, modA)
			touchList(r.B, modB)
			if !metaClean && rng.Intn(2) == 0 {
				r.Meta.Tag = "t"
				r.Meta.Info.SetModified()
			}
			if rng.Intn(2) == 0 {
				r.N = rng.Int63n(100)
				r.Info.SetModified()
			}
		}

		// Deterministic twin mutation: capture the rng decisions by
		// mutating twice with the same sub-seed.
		subSeed := rng.Int63()
		d1, d2 := ckpt.NewDomain(), ckpt.NewDomain()
		r1, r2 := build(d1, lenA, lenB), build(d2, lenA, lenB)
		drain(t, r1)
		drain(t, r2)
		rng = rand.New(rand.NewSource(subSeed))
		mutate(r1)
		rng = rand.New(rand.NewSource(subSeed))
		mutate(r2)

		want, _ := genericBody(t, r1, ckpt.Incremental)
		p, err := spec.Compile(cat, "Root", pat, spec.WithVerify())
		if err != nil {
			return false
		}
		got, _, err := planBody(t, p, r2)
		if err != nil {
			return false
		}
		return bytes.Equal(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
