package synth_test

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"ickpt/ckpt"
	"ickpt/internal/synth"
	"ickpt/reflectckpt"
	"ickpt/spec"
)

func smallShape(kind synth.Kind) synth.Shape {
	return synth.Shape{Structures: 20, ListLen: 5, Kind: kind}
}

// checkpointWith runs fn inside a started writer and returns a copy of the
// body.
func checkpointWith(t testing.TB, mode ckpt.Mode, fn func(w *ckpt.Writer) error) ([]byte, ckpt.Stats) {
	t.Helper()
	w := ckpt.NewWriter()
	w.Start(mode)
	if err := fn(w); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	body, stats, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), body...), stats
}

// twinWorkloads builds two identical populations and applies the same
// mutation sequence to both.
func twinWorkloads(t testing.TB, shape synth.Shape, seed int64, pat synth.ModPattern) (*synth.Workload, *synth.Workload) {
	t.Helper()
	w1, w2 := synth.Build(shape), synth.Build(shape)
	if err := w1.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Drain(); err != nil {
		t.Fatal(err)
	}
	n1 := w1.Mutate(rand.New(rand.NewSource(seed)), pat)
	n2 := w2.Mutate(rand.New(rand.NewSource(seed)), pat)
	if n1 != n2 {
		t.Fatalf("twin mutation diverged: %d vs %d", n1, n2)
	}
	return w1, w2
}

func TestObjectsCount(t *testing.T) {
	w := synth.Build(synth.Shape{Structures: 7, ListLen: 3, Kind: synth.Ints1})
	if got, want := w.Objects(), 7*(1+5*3); got != want {
		t.Errorf("Objects = %d, want %d", got, want)
	}
	if len(w.Roots()) != 7 {
		t.Errorf("Roots = %d, want 7", len(w.Roots()))
	}
}

func TestMutatePercentAndEligibility(t *testing.T) {
	shape := synth.Shape{Structures: 50, ListLen: 5, Kind: synth.Ints1}
	w := synth.Build(shape)
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}

	// 100% over 2 lists: exactly structures * 2 * listLen modified.
	n := w.Mutate(rand.New(rand.NewSource(1)), synth.ModPattern{Percent: 100, ModifiableLists: 2})
	if want := 50 * 2 * 5; n != want {
		t.Errorf("modified = %d, want %d", n, want)
	}

	// LastOnly at 100%: one element per modifiable list.
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	n = w.Mutate(rand.New(rand.NewSource(2)), synth.ModPattern{Percent: 100, ModifiableLists: 3, LastOnly: true})
	if want := 50 * 3; n != want {
		t.Errorf("lastOnly modified = %d, want %d", n, want)
	}

	// 50%: roughly half, and strictly between 0 and all.
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	n = w.Mutate(rand.New(rand.NewSource(3)), synth.ModPattern{Percent: 50, ModifiableLists: 5})
	total := 50 * 5 * 5
	if n <= total/3 || n >= total*2/3 {
		t.Errorf("50%% modified = %d of %d, implausible", n, total)
	}
}

// TestEnginesProduceIdenticalBodies is the central cross-engine invariant:
// reflect, virtual, plan and generated code must produce byte-identical
// incremental checkpoint bodies for the same state.
func TestEnginesProduceIdenticalBodies(t *testing.T) {
	for _, kind := range []synth.Kind{synth.Ints1, synth.Ints10} {
		for _, mp := range []synth.ModPattern{
			{Percent: 100, ModifiableLists: 5},
			{Percent: 50, ModifiableLists: 3},
			{Percent: 25, ModifiableLists: 1},
			{Percent: 100, ModifiableLists: 3, LastOnly: true},
			{Percent: 50, ModifiableLists: 5, LastOnly: true},
		} {
			name := "ints" + kind.String() + "/" + mp.String()
			t.Run(name, func(t *testing.T) {
				shape := smallShape(kind)

				// Engine 1: generic virtual dispatch.
				wA, wB := twinWorkloads(t, shape, 42, mp)
				virt, _ := checkpointWith(t, ckpt.Incremental, wA.CheckpointGeneric)

				// Engine 2: reflection.
				en := reflectckpt.NewEngine()
				refl, _ := checkpointWith(t, ckpt.Incremental, func(w *ckpt.Writer) error {
					return wB.CheckpointReflect(en, w)
				})
				if !bytes.Equal(virt, refl) {
					t.Error("reflect body differs from virtual body")
				}

				// Engine 3: compiled plan, specialized for the pattern.
				_, wC := twinWorkloads(t, shape, 42, mp)
				plan, err := synth.CompilePlan(kind, mp.SpecPattern(kind), spec.WithVerify())
				if err != nil {
					t.Fatal(err)
				}
				planBody, _ := checkpointWith(t, ckpt.Incremental, func(w *ckpt.Writer) error {
					return wC.CheckpointPlan(plan, w)
				})
				if !bytes.Equal(virt, planBody) {
					t.Error("plan body differs from virtual body")
				}

				// Engine 4: generated code.
				_, wD := twinWorkloads(t, shape, 42, mp)
				key := synth.GenKey(kind, mp.SpecPattern(kind).Name)
				genBody, _ := checkpointWith(t, ckpt.Incremental, func(w *ckpt.Writer) error {
					return wD.CheckpointGenerated(key, w)
				})
				if !bytes.Equal(virt, genBody) {
					t.Errorf("generated body (%s) differs from virtual body", key)
				}

				// Engine 5: structure-only specializations (plan and
				// generated) must also match: they keep all tests.
				_, wE := twinWorkloads(t, shape, 42, mp)
				structPlan, err := synth.CompilePlan(kind, nil)
				if err != nil {
					t.Fatal(err)
				}
				structBody, _ := checkpointWith(t, ckpt.Incremental, func(w *ckpt.Writer) error {
					return wE.CheckpointPlan(structPlan, w)
				})
				if !bytes.Equal(virt, structBody) {
					t.Error("structure-only plan body differs from virtual body")
				}
			})
		}
	}
}

func TestGeneratedRoutinesRegistered(t *testing.T) {
	for _, kind := range []synth.Kind{synth.Ints1, synth.Ints10} {
		keys := []string{synth.GenKey(kind, "")}
		for _, m := range synth.ModifiableListCounts {
			keys = append(keys,
				synth.GenKey(kind, synth.PatternLists(kind, m).Name),
				synth.GenKey(kind, synth.PatternLastOnly(kind, m).Name),
			)
		}
		for _, k := range keys {
			if _, ok := synth.Generated(k); !ok {
				t.Errorf("generated routine %q not registered", k)
			}
		}
	}
	if got, want := len(synth.GeneratedKeys()), 14; got != want {
		t.Errorf("registered %d generated routines, want %d", got, want)
	}
}

func TestFullCheckpointAndRestore(t *testing.T) {
	shape := synth.Shape{Structures: 5, ListLen: 4, Kind: synth.Ints10}
	w := synth.Build(shape)

	full, stats := checkpointWith(t, ckpt.Full, w.CheckpointGeneric)
	if stats.Recorded != w.Objects() {
		t.Fatalf("full recorded %d, want %d", stats.Recorded, w.Objects())
	}

	// Mutate and take an incremental.
	w.Mutate(rand.New(rand.NewSource(9)), synth.ModPattern{Percent: 50, ModifiableLists: 5})
	incr, _ := checkpointWith(t, ckpt.Incremental, w.CheckpointGeneric)

	rb := ckpt.NewRebuilder(synth.Registry())
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
	if len(objs) != w.Objects() {
		t.Fatalf("rebuilt %d objects, want %d", len(objs), w.Objects())
	}

	// Every live element's value must match the rebuilt one.
	for _, root := range w.Roots() {
		s := root.(*synth.Structure10)
		got, ok := objs[s.Info.ID()].(*synth.Structure10)
		if !ok {
			t.Fatalf("rebuilt root %d has type %T", s.Info.ID(), objs[s.Info.ID()])
		}
		for li := 0; li < synth.NumLists; li++ {
			le, ge := s.List(li), got.List(li)
			for le != nil && ge != nil {
				if le.V0 != ge.V0 || le.V9 != ge.V9 || le.Info.ID() != ge.Info.ID() {
					t.Fatalf("element mismatch: live (%d,%d,%d) rebuilt (%d,%d,%d)",
						le.Info.ID(), le.V0, le.V9, ge.Info.ID(), ge.V0, ge.V9)
				}
				le, ge = le.Next, ge.Next
			}
			if (le == nil) != (ge == nil) {
				t.Fatal("list length mismatch after rebuild")
			}
		}
	}
}

func TestPlanVerifyCatchesUndeclaredMutation(t *testing.T) {
	shape := synth.Shape{Structures: 3, ListLen: 3, Kind: synth.Ints1}
	w := synth.Build(shape)
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	// Pattern says only list 0 may change, but mutate list 4.
	w.Mutate(rand.New(rand.NewSource(1)), synth.ModPattern{Percent: 100, ModifiableLists: 5})

	plan, err := synth.CompilePlan(synth.Ints1, synth.PatternLists(synth.Ints1, 1), spec.WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	wr := ckpt.NewWriter()
	wr.Start(ckpt.Incremental)
	err = w.CheckpointPlan(plan, wr)
	if err == nil {
		t.Fatal("verify mode missed an undeclared mutation")
	}
}

// TestQuickTwinDeterminism: building a workload twice yields identical
// checkpoints for any shape — the determinism all equality tests rely on.
func TestQuickTwinDeterminism(t *testing.T) {
	f := func(nStruct, listLen uint8, kind10 bool) bool {
		shape := synth.Shape{
			Structures: 1 + int(nStruct%8),
			ListLen:    1 + int(listLen%6),
			Kind:       synth.Ints1,
		}
		if kind10 {
			shape.Kind = synth.Ints10
		}
		w1, w2 := synth.Build(shape), synth.Build(shape)
		b1, _ := checkpointWith(t, ckpt.Full, w1.CheckpointGeneric)
		b2, _ := checkpointWith(t, ckpt.Full, w2.CheckpointGeneric)
		return bytes.Equal(b1, b2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestObjectSizes pins the workload objects' sizes: a field added to them or
// to ckpt.Info moves an Element10 — 100 000 of them in the synth-sparse
// benchmark graph — into the next allocation size class, so it should fail
// here first.
func TestObjectSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Element1", unsafe.Sizeof(synth.Element1{}), 32},
		{"Element10", unsafe.Sizeof(synth.Element10{}), 104},
		{"Structure1", unsafe.Sizeof(synth.Structure1{}), 56},
		{"Structure10", unsafe.Sizeof(synth.Structure10{}), 56},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(synth.%s{}) = %d, want %d", c.name, c.got, c.want)
		}
	}
}
