package ckpt_test

import (
	"errors"
	"testing"

	"ickpt/ckpt"
	"ickpt/wire"
)

func TestModeString(t *testing.T) {
	if ckpt.Full.String() != "full" || ckpt.Incremental.String() != "incremental" {
		t.Errorf("mode strings: %q %q", ckpt.Full, ckpt.Incremental)
	}
	if ckpt.Mode(0).String() != "invalid" || ckpt.Mode(9).String() != "invalid" {
		t.Error("invalid modes must render as invalid")
	}
}

func TestEmitterDirectUse(t *testing.T) {
	// Specialized code drives the emitter directly; its output must be a
	// valid body indistinguishable from the generic writer's.
	d := ckpt.NewDomain()
	p := newPoint(d, 4, 5, "direct")

	w := ckpt.NewWriter()
	w.Start(ckpt.Incremental)
	em := w.Emitter()
	em.Visit()
	if !em.EmitIfModified(p) {
		t.Fatal("fresh object not emitted")
	}
	body, stats, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recorded != 1 || stats.Visited != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if p.info.Modified() {
		t.Error("EmitIfModified did not reset the flag")
	}
	info, err := ckpt.InspectBodyKinds(body, func(id uint64, tt ckpt.TypeID, _ byte, payload []byte) error {
		if id != p.info.ID() || tt != typePoint {
			t.Errorf("record = (%d, %v)", id, tt)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 1 {
		t.Errorf("records = %d", info.Records)
	}

	// Skip path.
	w.Start(ckpt.Incremental)
	em = w.Emitter()
	em.Visit()
	if em.EmitIfModified(p) {
		t.Error("clean object emitted")
	}
	_, stats, err = w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != 1 {
		t.Errorf("skipped = %d, want 1", stats.Skipped)
	}
}

func TestEmitterBeginEnd(t *testing.T) {
	d := ckpt.NewDomain()
	p := newPoint(d, 1, 2, "x")
	w := ckpt.NewWriter()
	w.Start(ckpt.Full)
	em := w.Emitter()
	enc := em.Begin(&p.info, typePoint)
	enc.Varint(123)
	em.End()
	body, _, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	var payload []byte
	if _, err := ckpt.InspectBodyKinds(body, func(_ uint64, _ ckpt.TypeID, _ byte, pl []byte) error {
		payload = append([]byte(nil), pl...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	dec := wire.NewDecoder(payload)
	if got := dec.Varint(); got != 123 || dec.Len() != 0 {
		t.Errorf("payload = %d (rest %d)", got, dec.Len())
	}
}

func TestInspectBodyErrors(t *testing.T) {
	if _, err := ckpt.InspectBodyKinds(nil, nil); err == nil {
		t.Error("empty body accepted")
	}
	// Bad version.
	if _, err := ckpt.InspectBodyKinds([]byte{9, 1, 0}, nil); !errors.Is(err, ckpt.ErrBadBody) {
		t.Errorf("bad version = %v", err)
	}
	// Bad mode.
	if _, err := ckpt.InspectBodyKinds([]byte{1, 7, 0}, nil); !errors.Is(err, ckpt.ErrBadBody) {
		t.Errorf("bad mode = %v", err)
	}
	// Record with length pointing past the end.
	body := []byte{1, 1, 0 /* header */, 1 /* id */, 1 /* type */, 200 /* len */}
	if _, err := ckpt.InspectBodyKinds(body, nil); err == nil {
		t.Error("overlong record accepted")
	}
}

func TestInspectBodyCallbackError(t *testing.T) {
	d := ckpt.NewDomain()
	p := newPoint(d, 1, 2, "x")
	w := ckpt.NewWriter()
	w.Start(ckpt.Full)
	if err := w.Checkpoint(p); err != nil {
		t.Fatal(err)
	}
	body, _, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, err := ckpt.InspectBodyKinds(body, func(uint64, ckpt.TypeID, byte, []byte) error {
		return boom
	}); !errors.Is(err, boom) {
		t.Errorf("callback error = %v, want boom", err)
	}
}

func TestMultipleRootsOneBody(t *testing.T) {
	d := ckpt.NewDomain()
	roots := []*box{buildChain(d, 2), buildChain(d, 3), buildChain(d, 1)}
	w := ckpt.NewWriter()
	w.Start(ckpt.Full)
	for _, r := range roots {
		if err := w.Checkpoint(r); err != nil {
			t.Fatal(err)
		}
	}
	body, stats, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want := 3 + 2 + 3 + 1 // boxes + points
	if stats.Recorded != want {
		t.Errorf("recorded = %d, want %d", stats.Recorded, want)
	}

	rb := ckpt.NewRebuilder(testRegistry(t))
	if err := rb.Apply(append([]byte(nil), body...)); err != nil {
		t.Fatal(err)
	}
	objs, err := rb.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range roots {
		got, ok := objs[r.info.ID()].(*box)
		if !ok {
			t.Fatalf("root %d missing", r.info.ID())
		}
		requireChainEqual(t, r, got)
	}
}

func TestRegistryConflicts(t *testing.T) {
	reg := ckpt.NewRegistry()
	factory := func(id uint64) ckpt.Restorable { return nil }
	if got := reg.MustRegister("a", factory); got != ckpt.TypeIDOf("a") {
		t.Fatalf("MustRegister = %d, want TypeIDOf(\"a\") = %d", got, ckpt.TypeIDOf("a"))
	}
	func() {
		defer func() {
			err, _ := recover().(error)
			if !errors.Is(err, ckpt.ErrTypeConflict) {
				t.Errorf("duplicate name panicked with %v, want ErrTypeConflict", err)
			}
		}()
		reg.MustRegister("a", factory)
	}()
	if got := reg.Name(ckpt.TypeIDOf("a")); got != "a" {
		t.Errorf("Name = %q", got)
	}
	if got := reg.Name(ckpt.TypeIDOf("zzz")); got != "" {
		t.Errorf("unknown Name = %q", got)
	}
}

func TestFactoryIDMismatchDetected(t *testing.T) {
	d := ckpt.NewDomain()
	p := newPoint(d, 1, 1, "x")
	w := ckpt.NewWriter()
	w.Start(ckpt.Full)
	if err := w.Checkpoint(p); err != nil {
		t.Fatal(err)
	}
	body, _, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}

	reg := ckpt.NewRegistry()
	reg.MustRegister("ckpttest.point", func(id uint64) ckpt.Restorable {
		return &point{info: ckpt.RestoredInfo(id + 1)} // wrong id
	})
	rb := ckpt.NewRebuilder(reg)
	if err := rb.Apply(append([]byte(nil), body...)); err != nil {
		t.Fatal(err)
	}
	if _, err := rb.Build(nil); !errors.Is(err, ckpt.ErrTypeConflict) {
		t.Errorf("Build with broken factory = %v, want ErrTypeConflict", err)
	}
}
