package stablelog_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"ickpt/ckpt"
	"ickpt/stablelog"
	"ickpt/wire"
)

// dblob is a flat fixed-width payload — the shape payload deltas exist for.
type dblob struct {
	info ckpt.Info
	data []byte
}

var dblobType = ckpt.TypeIDOf("stablelog.dblob")

func (b *dblob) CheckpointInfo() *ckpt.Info    { return &b.info }
func (b *dblob) CheckpointTypeID() ckpt.TypeID { return dblobType }
func (b *dblob) Record(e *wire.Encoder)        { e.BytesField(b.data) }
func (b *dblob) Fold(*ckpt.Writer) error       { return nil }
func (b *dblob) Restore(d *wire.Decoder, _ *ckpt.Resolver) error {
	b.data = append(b.data[:0], d.BytesField()...)
	return nil
}

func dblobRegistry() *ckpt.Registry {
	reg := ckpt.NewRegistry()
	reg.MustRegister("stablelog.dblob", func(id uint64) ckpt.Restorable {
		return &dblob{info: ckpt.RestoredInfo(id)}
	})
	return reg
}

// TestRecoverDeltaChain replays a log whose incrementals carry delta
// records and checks the recovered payloads are byte-identical to the live
// objects: the replay path must materialize each patch against the payload
// the chain established, across several chained epochs.
func TestRecoverDeltaChain(t *testing.T) {
	path := tempLogPath(t)
	l, err := stablelog.Create(path)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	d := ckpt.NewDomain()
	rng := rand.New(rand.NewSource(11))
	blobs := make([]*dblob, 4)
	for i := range blobs {
		blobs[i] = &dblob{info: ckpt.NewInfo(d), data: make([]byte, 1024)}
		rng.Read(blobs[i].data)
	}

	wr := ckpt.NewWriter(ckpt.WithDeltaEncoding(0))
	take := func(mode ckpt.Mode) {
		t.Helper()
		wr.Start(mode)
		for _, b := range blobs {
			if err := wr.Checkpoint(b); err != nil {
				t.Fatal(err)
			}
		}
		body, _, err := wr.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(mode, wr.Epoch(), body); err != nil {
			t.Fatal(err)
		}
	}
	take(ckpt.Full)
	var lastInfo ckpt.BodyInfo
	for epoch := 0; epoch < 3; epoch++ {
		for _, b := range blobs {
			for i := 0; i < 8; i++ {
				b.data[rng.Intn(len(b.data))] ^= byte(1 + rng.Intn(255))
			}
			b.info.Mark()
		}
		take(ckpt.Incremental)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen, recover, and compare against the live population.
	l, err = stablelog.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	last, err := l.Read(l.Segments()[len(l.Segments())-1].Seq)
	if err != nil {
		t.Fatal(err)
	}
	if lastInfo, err = ckpt.InspectBodyKinds(last, nil); err != nil {
		t.Fatal(err)
	}
	if lastInfo.Deltas == 0 {
		t.Fatal("final incremental carries no delta records; fixture broken")
	}

	rb := ckpt.NewRebuilder(dblobRegistry())
	if err := l.Recover(rb); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	objs, err := rb.Build(nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(objs) != len(blobs) {
		t.Fatalf("recovered %d objects, want %d", len(objs), len(blobs))
	}
	for _, b := range blobs {
		got, ok := objs[b.info.ID()].(*dblob)
		if !ok {
			t.Fatalf("object %d missing or wrong type", b.info.ID())
		}
		if !bytes.Equal(got.data, b.data) {
			t.Errorf("object %d: recovered payload differs from live state", b.info.ID())
		}
	}
}

// TestRecoverBaselessDeltaIncoherent anchors a delta-bearing incremental to
// a full checkpoint that lacks the patched object. Framing, checksums and
// the segment chain all hold, but the patch has no base — replay must fail
// with ErrIncoherent, leaving the rebuilder as it was, rather than
// materialize from nothing.
func TestRecoverBaselessDeltaIncoherent(t *testing.T) {
	path := tempLogPath(t)
	l, err := stablelog.Create(path)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	blob := &dblob{info: ckpt.NewInfo(ckpt.NewDomain()), data: bytes.Repeat([]byte{0x5A}, 1024)}
	wr := ckpt.NewWriter(ckpt.WithDeltaEncoding(0))
	take := func(mode ckpt.Mode) ([]byte, uint64) {
		t.Helper()
		wr.Start(mode)
		if err := wr.Checkpoint(blob); err != nil {
			t.Fatal(err)
		}
		body, _, err := wr.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return append([]byte(nil), body...), wr.Epoch()
	}
	take(ckpt.Full) // establishes the shadow base; never logged
	blob.data[100] ^= 0xFF
	blob.info.Mark()
	incr, incrEpoch := take(ckpt.Incremental)

	empty := ckpt.NewWriter()
	empty.Start(ckpt.Full)
	emptyBody, _, err := empty.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(ckpt.Full, incrEpoch-1, emptyBody); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(ckpt.Incremental, incrEpoch, incr); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, err = stablelog.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	rb := ckpt.NewRebuilder(dblobRegistry())
	err = l.Recover(rb)
	if err == nil {
		t.Fatal("Recover accepted a baseless delta chain")
	}
	if !errors.Is(err, stablelog.ErrIncoherent) {
		t.Errorf("Recover = %v, want ErrIncoherent", err)
	}
	if rb.Objects() != 0 {
		t.Errorf("rebuilder holds %d objects after a rejected chain, want 0", rb.Objects())
	}
}
