package ckpt_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"ickpt/ckpt"
	"ickpt/wire"
)

// Delta-encoding fixture: an object whose payload is a sizeable byte buffer,
// the shape sub-object delta encoding exists for.

var typeBlob = ckpt.TypeIDOf("ckpttest.blob")

type blob struct {
	info ckpt.Info
	data []byte
}

var _ ckpt.Restorable = (*blob)(nil)

func newBlob(d *ckpt.Domain, n int, seed int64) *blob {
	b := &blob{info: ckpt.NewInfo(d), data: make([]byte, n)}
	rand.New(rand.NewSource(seed)).Read(b.data)
	return b
}

func (b *blob) CheckpointInfo() *ckpt.Info    { return &b.info }
func (b *blob) CheckpointTypeID() ckpt.TypeID { return typeBlob }
func (b *blob) Record(e *wire.Encoder)        { e.BytesField(b.data) }
func (b *blob) Fold(*ckpt.Writer) error       { return nil }
func (b *blob) Restore(d *wire.Decoder, _ *ckpt.Resolver) error {
	b.data = append(b.data[:0], d.BytesField()...)
	return nil
}

// poke flips one byte and marks the blob modified.
func (b *blob) poke(i int) {
	b.data[i%len(b.data)] ^= 0x5a
	b.info.Mark()
}

func blobRegistry(t testing.TB) *ckpt.Registry {
	t.Helper()
	reg := ckpt.NewRegistry()
	reg.MustRegister("ckpttest.blob", func(id uint64) ckpt.Restorable {
		return &blob{info: ckpt.RestoredInfo(id)}
	})
	return reg
}

type blobTrace struct {
	bodies [][]byte
	final  map[uint64][]byte // id -> data after the last epoch
}

// runBlobTrace checkpoints a fixed mutation schedule over 8 blobs — one full
// epoch, five incrementals with two small mutations each — and returns the
// bodies plus the final object state. The schedule is deterministic, so two
// runs with equivalent writer configurations produce comparable streams.
func runBlobTrace(t *testing.T, opts ...ckpt.WriterOption) blobTrace {
	t.Helper()
	d := ckpt.NewDomain()
	blobs := make([]*blob, 8)
	for i := range blobs {
		blobs[i] = newBlob(d, 1024, int64(i))
	}
	w := ckpt.NewWriter(opts...)
	var tr blobTrace
	take := func(mode ckpt.Mode) {
		w.Start(mode)
		for _, b := range blobs {
			if err := w.Checkpoint(b); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
		body, _, err := w.Finish()
		if err != nil {
			t.Fatalf("Finish: %v", err)
		}
		tr.bodies = append(tr.bodies, append([]byte(nil), body...))
	}
	take(ckpt.Full)
	for e := 0; e < 5; e++ {
		blobs[e%len(blobs)].poke(37 * (e + 1))
		blobs[(e+3)%len(blobs)].poke(91*e + 5)
		take(ckpt.Incremental)
	}
	tr.final = make(map[uint64][]byte, len(blobs))
	for _, b := range blobs {
		tr.final[b.info.ID()] = append([]byte(nil), b.data...)
	}
	return tr
}

func rebuildBlobs(t *testing.T, bodies [][]byte) map[uint64]ckpt.Restorable {
	t.Helper()
	rb := ckpt.NewRebuilder(blobRegistry(t))
	for i, body := range bodies {
		if err := rb.Apply(body); err != nil {
			t.Fatalf("Apply body %d: %v", i, err)
		}
	}
	objs, err := rb.Build(nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return objs
}

func checkBlobs(t *testing.T, objs map[uint64]ckpt.Restorable, want map[uint64][]byte) {
	t.Helper()
	if len(objs) != len(want) {
		t.Fatalf("rebuilt %d objects, want %d", len(objs), len(want))
	}
	for id, data := range want {
		got, ok := objs[id].(*blob)
		if !ok {
			t.Fatalf("object %d missing or wrong type", id)
		}
		if !bytes.Equal(got.data, data) {
			t.Fatalf("object %d: rebuilt data differs from live state", id)
		}
	}
}

// TestDeltaWriterRoundTrip: a delta-encoding writer produces version-2 bodies
// that carry deltas for lightly-mutated payloads, shrink the incremental
// stream, and rebuild to exactly the state a plain writer's stream rebuilds
// to.
func TestDeltaWriterRoundTrip(t *testing.T) {
	delta := runBlobTrace(t, ckpt.WithDeltaEncoding(64))
	plain := runBlobTrace(t)

	deltaRecs, deltaBytes, plainBytes := 0, 0, 0
	for i, body := range delta.bodies {
		info, err := ckpt.InspectBodyKinds(body, nil)
		if err != nil {
			t.Fatalf("InspectBodyKinds body %d: %v", i, err)
		}
		if i == 0 {
			if info.Version != 2 || info.Deltas != 0 {
				t.Fatalf("full body: version=%d deltas=%d, want 2/0", info.Version, info.Deltas)
			}
			continue
		}
		if info.Deltas != info.Records {
			t.Errorf("incremental body %d: %d of %d records are deltas, want all", i, info.Deltas, info.Records)
		}
		deltaRecs += info.Deltas
		deltaBytes += len(body)
		plainBytes += len(plain.bodies[i])
	}
	if deltaRecs == 0 {
		t.Fatal("no delta records in the incremental stream")
	}
	if deltaBytes*4 > plainBytes {
		t.Fatalf("deltas saved too little: %d delta bytes vs %d plain bytes", deltaBytes, plainBytes)
	}

	checkBlobs(t, rebuildBlobs(t, delta.bodies), delta.final)
	checkBlobs(t, rebuildBlobs(t, plain.bodies), plain.final)
	for id := range delta.final {
		if !bytes.Equal(delta.final[id], plain.final[id]) {
			t.Fatalf("traces diverged at object %d", id)
		}
	}
}

// TestDeltaBodyBytes counts what delta encoding ships against a plain writer
// on a twin population: 32 fixed-width blobs under WithDeltaEncoding(512),
// every payload rewritten at churn × its width of rng-scattered offsets per
// epoch. Scattered single-byte rewrites are the encoder's hardest profitable
// case: every changed byte opens its own literal run.
func TestDeltaBodyBytes(t *testing.T) {
	const (
		blobs  = 32
		floor  = 512
		epochs = 6
	)
	cases := []struct {
		size   int
		churn  float64
		lo, hi float64 // delta bytes / plain bytes over the incrementals
		deltas bool    // the incrementals carry delta records
	}{
		{4096, 0.01, 0, 0.35, true},
		{4096, 0.10, 0, 0.35, true},
		{65536, 0.01, 0, 0.35, true},
		{65536, 0.10, 0, 0.35, true},
		// Rewriting every byte leaves nothing to copy: the budget refuses
		// the delta and the full payload ships.
		{4096, 1, 0.95, 1.01, false},
		{65536, 1, 0.95, 1.01, false},
		// At or below the floor shadowing is bypassed (lo = hi = 0 asks for
		// the exact count): the plain body's bytes plus the one kind byte
		// per record that version-2 framing adds.
		{256, 0.01, 0, 0, false},
		{256, 0.10, 0, 0, false},
		{256, 1, 0, 0, false},
	}
	// incrementals runs the schedule and returns the incremental bodies'
	// total size and delta record count.
	incrementals := func(size int, churn float64, opts ...ckpt.WriterOption) (n, deltas int) {
		d := ckpt.NewDomain()
		objs := make([]*blob, blobs)
		for i := range objs {
			objs[i] = newBlob(d, size, int64(i))
		}
		rng := rand.New(rand.NewSource(int64(size) + int64(churn*1000)))
		w := ckpt.NewWriter(opts...)
		for e := 0; e <= epochs; e++ {
			mode := ckpt.Full
			if e > 0 {
				mode = ckpt.Incremental
				for _, b := range objs {
					for k := max(int(churn*float64(size)), 1); k > 0; k-- {
						b.data[rng.Intn(size)] ^= byte(1 + rng.Intn(255))
					}
					b.info.Mark()
				}
			}
			w.Start(mode)
			for _, b := range objs {
				if err := w.Checkpoint(b); err != nil {
					t.Fatal(err)
				}
			}
			body, _, err := w.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if e == 0 {
				continue
			}
			info, err := ckpt.InspectBodyKinds(body, nil)
			if err != nil {
				t.Fatal(err)
			}
			n += len(body)
			deltas += info.Deltas
		}
		return n, deltas
	}
	for _, c := range cases {
		plain, _ := incrementals(c.size, c.churn)
		delta, deltas := incrementals(c.size, c.churn, ckpt.WithDeltaEncoding(floor))
		if c.hi == 0 {
			if want := plain + blobs*epochs; delta != want {
				t.Errorf("%d B at %.0f%% churn: delta body %d bytes, want %d", c.size, c.churn*100, delta, want)
			}
		} else if ratio := float64(delta) / float64(plain); ratio < c.lo || ratio > c.hi {
			t.Errorf("%d B at %.0f%% churn: delta body %.3f× the plain body, want [%.2f, %.2f]",
				c.size, c.churn*100, ratio, c.lo, c.hi)
		}
		if (deltas > 0) != c.deltas {
			t.Errorf("%d B at %.0f%% churn: %d delta records, want any: %v", c.size, c.churn*100, deltas, c.deltas)
		}
	}
}

// TestDeltaAbortKeepsCommittedBase: aborting an epoch leaves no diff base
// behind (the shadow holds the lost payload, stale), the next emit of the
// aborted object ships a full record, and the surviving bodies rebuild to the
// live state.
func TestDeltaAbortKeepsCommittedBase(t *testing.T) {
	d := ckpt.NewDomain()
	b := newBlob(d, 2048, 1)
	s := ckpt.NewSession()
	w := ckpt.NewWriter(ckpt.WithSession(s), ckpt.WithDeltaEncoding(64))
	cache := w.Shadow()
	if cache == nil {
		t.Fatal("WithDeltaEncoding left Shadow nil")
	}

	take := func(mode ckpt.Mode) []byte {
		t.Helper()
		w.Start(mode)
		if err := w.Checkpoint(b); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		body, _, err := w.Finish()
		if err != nil {
			t.Fatalf("Finish: %v", err)
		}
		return append([]byte(nil), body...)
	}
	deltas := func(body []byte) int {
		t.Helper()
		info, err := ckpt.InspectBodyKinds(body, nil)
		if err != nil {
			t.Fatalf("InspectBodyKinds: %v", err)
		}
		return info.Deltas
	}

	body1 := take(ckpt.Full)
	s.Commit(1)
	b.poke(10)
	body2 := take(ckpt.Incremental)
	s.Commit(2)
	if deltas(body2) != 1 {
		t.Fatal("epoch 2 did not delta against the committed full payload")
	}
	committed := cache.CommittedBase(b.info.ID())
	if committed == nil {
		t.Fatal("no committed base after epoch 2")
	}

	b.poke(20)
	body3 := take(ckpt.Incremental)
	if deltas(body3) != 1 {
		t.Fatal("epoch 3 did not delta")
	}
	s.Abort(3) // the sink lost the body; the session re-marks and the cache stales the entry
	if got := cache.CommittedBase(b.info.ID()); got != nil {
		t.Fatalf("CommittedBase after abort = %d bytes, want nil (stale until restaged)", len(got))
	}
	if !b.info.Modified() {
		t.Fatal("abort did not re-mark the blob")
	}

	body4 := take(ckpt.Incremental)
	s.Commit(4)
	if deltas(body4) != 0 {
		t.Fatal("post-abort emit must ship a full record, not a delta against lost state")
	}
	if got := cache.CommittedBase(b.info.ID()); !bytes.Equal(got, committedAfter(b)) {
		t.Fatal("epoch 4 did not re-establish the shadow")
	}

	b.poke(30)
	body5 := take(ckpt.Incremental)
	s.Commit(5)
	if deltas(body5) != 1 {
		t.Fatal("epoch 5 did not resume delta encoding")
	}

	objs := rebuildBlobs(t, [][]byte{body1, body2, body4, body5})
	got := objs[b.info.ID()].(*blob)
	if !bytes.Equal(got.data, b.data) {
		t.Fatal("rebuilt state differs from live state after abort")
	}
}

// committedAfter returns the payload bytes a committed record of b carries.
func committedAfter(b *blob) []byte {
	var e wire.Encoder
	b.Record(&e)
	return e.Bytes()
}

// rawRec frames one version-2 record.
func rawRec(e *wire.Encoder, id uint64, kind byte, payload []byte) {
	e.Uvarint(id)
	e.Uvarint(uint64(typeBlob))
	e.Byte(kind)
	e.Uvarint(uint64(len(payload)))
	e.Raw(payload)
}

// rawBody hand-frames a version-2 body: version byte, mode byte, epoch
// uvarint, then recs.
func rawBody(mode ckpt.Mode, epoch uint64, recs func(*wire.Encoder)) []byte {
	var e wire.Encoder
	e.Byte(2)
	e.Byte(byte(mode))
	e.Uvarint(epoch)
	recs(&e)
	return append([]byte(nil), e.Bytes()...)
}

// TestRebuilderDeltaBase: Apply rejects deltas with no in-stream base, with a
// mismatched base, and deltas inside full bodies — all as ErrDeltaBase, and
// atomically (the rebuilder state is untouched).
func TestRebuilderDeltaBase(t *testing.T) {
	reg := blobRegistry(t)
	payA := make([]byte, 256)
	rand.New(rand.NewSource(2)).Read(payA)
	payB := append([]byte(nil), payA...)
	payB[7] ^= 0xff
	var de wire.Encoder
	if !wire.AppendDeltaHashed(&de, payA, wire.DeltaBaseHash(payA), payB, len(payB)) {
		t.Fatal("delta encode")
	}
	deltaAB := de.Bytes()

	full := rawBody(ckpt.Full, 1, func(e *wire.Encoder) { rawRec(e, 1, wire.KindFull, payA) })

	t.Run("no-base", func(t *testing.T) {
		rb := ckpt.NewRebuilder(reg)
		if err := rb.Apply(full); err != nil {
			t.Fatal(err)
		}
		bad := rawBody(ckpt.Incremental, 2, func(e *wire.Encoder) { rawRec(e, 2, wire.KindDelta, deltaAB) })
		if err := rb.Apply(bad); !errors.Is(err, ckpt.ErrDeltaBase) {
			t.Fatalf("Apply = %v, want ErrDeltaBase", err)
		}
		if rb.Objects() != 1 {
			t.Fatalf("failed Apply mutated state: %d objects", rb.Objects())
		}
	})

	t.Run("base-mismatch", func(t *testing.T) {
		rb := ckpt.NewRebuilder(reg)
		wrong := append([]byte(nil), payA...)
		wrong[0] ^= 1
		start := rawBody(ckpt.Full, 1, func(e *wire.Encoder) { rawRec(e, 1, wire.KindFull, wrong) })
		if err := rb.Apply(start); err != nil {
			t.Fatal(err)
		}
		inc := rawBody(ckpt.Incremental, 2, func(e *wire.Encoder) { rawRec(e, 1, wire.KindDelta, deltaAB) })
		if err := rb.Apply(inc); !errors.Is(err, ckpt.ErrDeltaBase) {
			t.Fatalf("Apply = %v, want ErrDeltaBase", err)
		}
	})

	t.Run("delta-in-full", func(t *testing.T) {
		rb := ckpt.NewRebuilder(reg)
		if err := rb.Apply(full); err != nil {
			t.Fatal(err)
		}
		bad := rawBody(ckpt.Full, 2, func(e *wire.Encoder) { rawRec(e, 1, wire.KindDelta, deltaAB) })
		if err := rb.Apply(bad); !errors.Is(err, ckpt.ErrDeltaBase) {
			t.Fatalf("Apply = %v, want ErrDeltaBase", err)
		}
	})

	t.Run("same-body-base", func(t *testing.T) {
		// A delta may base on a full record earlier in the same body.
		rb := ckpt.NewRebuilder(reg)
		if err := rb.Apply(full); err != nil {
			t.Fatal(err)
		}
		inc := rawBody(ckpt.Incremental, 2, func(e *wire.Encoder) {
			rawRec(e, 2, wire.KindFull, payA)
			rawRec(e, 2, wire.KindDelta, deltaAB)
		})
		if err := rb.Apply(inc); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	})
}

// TestApplyRunDeltaBaseAcrossFull: a Full body resets the objects a delta
// can be based on, inside a run as well as between runs — whether the run
// began with a Full or extends the live state, a delta after a later Full
// finds no base in what came before that Full.
func TestApplyRunDeltaBaseAcrossFull(t *testing.T) {
	pay := make([]byte, 128)
	rand.New(rand.NewSource(3)).Read(pay)
	next := append([]byte(nil), pay...)
	next[5] ^= 2
	var de wire.Encoder
	if !wire.AppendDeltaHashed(&de, pay, wire.DeltaBaseHash(pay), next, len(next)) {
		t.Fatal("delta encode")
	}
	delta := de.Bytes()

	full := rawBody(ckpt.Full, 1, func(e *wire.Encoder) { rawRec(e, 1, wire.KindFull, pay) })
	good := rawBody(ckpt.Incremental, 2, func(e *wire.Encoder) { rawRec(e, 1, wire.KindDelta, delta) })
	orphan := rawBody(ckpt.Incremental, 2, func(e *wire.Encoder) { rawRec(e, 9, wire.KindDelta, delta) })
	refull := rawBody(ckpt.Full, 3, func(e *wire.Encoder) { rawRec(e, 2, wire.KindFull, pay) })
	empty := rawBody(ckpt.Incremental, 2, func(*wire.Encoder) {})

	for _, tc := range []struct {
		name    string
		anchor  bool // apply full before the run, so a run may extend it
		run     [][]byte
		wantErr bool
	}{
		{"coherent", false, [][]byte{full, good}, false},
		{"orphan delta", false, [][]byte{full, orphan}, true},
		{"full again", false, [][]byte{full, full, good}, false},
		{"delta across a full", false, [][]byte{full, refull, good}, true},
		{"extending", true, [][]byte{good}, false},
		{"extending, delta across a full", true, [][]byte{refull, good}, true},
		{"extending, full mid-run", true, [][]byte{empty, refull, good}, true},
	} {
		rb := ckpt.NewRebuilder(blobRegistry(t))
		if tc.anchor {
			if err := rb.Apply(full); err != nil {
				t.Fatal(err)
			}
		}
		before := rb.Digest()
		err := rb.ApplyRun(tc.run)
		switch {
		case !tc.wantErr && err != nil:
			t.Errorf("%s: ApplyRun = %v", tc.name, err)
		case tc.wantErr && !errors.Is(err, ckpt.ErrDeltaBase):
			t.Errorf("%s: ApplyRun = %v, want ErrDeltaBase", tc.name, err)
		case tc.wantErr && rb.Digest() != before:
			t.Errorf("%s: failed run changed the rebuilder", tc.name)
		}
	}
}

// TestRebuilderDeltaReapplyAllocs gates the steady-state replica loop: a
// same-size delta re-apply reuses the owned latest-payload buffer and the
// staged scratch map, allocating nothing per epoch.
func TestRebuilderDeltaReapplyAllocs(t *testing.T) {
	payA := make([]byte, 4096)
	rand.New(rand.NewSource(4)).Read(payA)
	payB := append([]byte(nil), payA...)
	for i := 0; i < 8; i++ {
		payB[i*500] ^= 0x3c
	}
	var eAB, eBA wire.Encoder
	if !wire.AppendDeltaHashed(&eAB, payA, wire.DeltaBaseHash(payA), payB, len(payB)) || !wire.AppendDeltaHashed(&eBA, payB, wire.DeltaBaseHash(payB), payA, len(payA)) {
		t.Fatal("delta encode")
	}
	full := rawBody(ckpt.Full, 1, func(e *wire.Encoder) { rawRec(e, 1, wire.KindFull, payA) })
	fwd := rawBody(ckpt.Incremental, 2, func(e *wire.Encoder) { rawRec(e, 1, wire.KindDelta, eAB.Bytes()) })
	back := rawBody(ckpt.Incremental, 3, func(e *wire.Encoder) { rawRec(e, 1, wire.KindDelta, eBA.Bytes()) })

	rb := ckpt.NewRebuilder(blobRegistry(t))
	if err := rb.Apply(full); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if err := rb.Apply(fwd); err != nil {
			t.Fatal(err)
		}
		if err := rb.Apply(back); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("steady-state delta re-apply allocates %.1f per epoch pair, want 0", avg)
	}
}
