package ckpt_test

import (
	"os"
	"path/filepath"
	"testing"

	"ickpt/ckpt"
	"ickpt/ckpt/tenant"
	"ickpt/internal/faultfs"
	"ickpt/stablelog"
	"ickpt/wire"
)

// On a log several streams share, stablelog.Open keeps the payloads it
// verifies and a replay hands them to the rebuilder in place, so a
// version-1 record the rebuilder holds aliases the log's kept bytes. This
// test holds the rebuilder to never writing them: not when it recovers a
// stream, and not when a later body — full and delta records over the
// recovered objects — extends the recovered state.

// readCountFS counts the ReadAt calls made on files opened through it.
type readCountFS struct {
	faultfs.FS
	reads *int
}

type readCountFile struct {
	faultfs.File
	reads *int
}

func (c readCountFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return readCountFile{f, c.reads}, nil
}

func (f readCountFile) ReadAt(p []byte, off int64) (int, error) {
	*f.reads++
	return f.File.ReadAt(p, off)
}

func TestReplayLeavesKeptPayloadsAlone(t *testing.T) {
	const rounds = 8
	path := filepath.Join(t.TempDir(), "shared.log")
	lg, err := stablelog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	// Streams 1 and 2 are written by a plain writer (version-1 bodies),
	// 3 and 4 by a delta-encoding one (version 2, delta records from their
	// second epoch on). Stream 1 writes round 1 alone, so the others' first
	// segments are where Open starts keeping; a Full every fourth epoch puts
	// every stream's latest run inside the kept bytes.
	type stream struct {
		id    uint32
		w     *ckpt.Writer
		blobs []*blob
		e     uint64
	}
	var streams []*stream
	for id := uint32(1); id <= 4; id++ {
		d := ckpt.NewDomain()
		s := &stream{id: id, w: ckpt.NewWriter()}
		if id >= 3 {
			s.w = ckpt.NewWriter(ckpt.WithDeltaEncoding(64))
		}
		for i := range 4 {
			s.blobs = append(s.blobs, newBlob(d, 256, int64(10*id)+int64(i)))
		}
		streams = append(streams, s)
	}
	loggedDeltas := 0
	for round := 1; round <= rounds; round++ {
		for _, s := range streams {
			if s.id > 1 && round == 1 {
				continue
			}
			s.e++
			mode := ckpt.Incremental
			if s.e%4 == 1 {
				mode = ckpt.Full
			}
			s.blobs[s.e%4].poke(int(s.e))
			s.w.Start(mode)
			for _, b := range s.blobs {
				if err := s.w.Checkpoint(b); err != nil {
					t.Fatal(err)
				}
			}
			body, _, err := s.w.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := lg.Append(mode, tenant.WireEpoch(s.id, s.e), body); err != nil {
				t.Fatal(err)
			}
			info, err := ckpt.InspectBodyKinds(body, nil)
			if err != nil {
				t.Fatal(err)
			}
			loggedDeltas += info.Deltas
		}
	}
	if loggedDeltas == 0 {
		t.Fatal("the delta-encoding streams logged no delta record")
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	reads := 0
	l, err := stablelog.Open(path, stablelog.WithFS(readCountFS{faultfs.OS{}, &reads}))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	reg := blobRegistry(t)
	reads = 0
	recovered := make(map[uint32]string)
	for _, s := range streams {
		rb := ckpt.NewRebuilder(reg)
		if err := tenant.Recover(l, s.id, rb); err != nil {
			t.Fatal(err)
		}
		recovered[s.id] = rb.Digest()

		// One body extends the recovered state: a delta record for two
		// blobs, a full record for a third, each over the payload the
		// rebuilder recovered for it.
		ext := rawBody(ckpt.Incremental, s.e+1, func(e *wire.Encoder) {
			for i, b := range s.blobs[:3] {
				base := committedAfter(b)
				b.poke(int(s.e) + 7*i)
				next := committedAfter(b)
				if i == 2 {
					rawRec(e, b.info.ID(), wire.KindFull, next)
					continue
				}
				var de wire.Encoder
				if !wire.AppendDeltaHashed(&de, base, wire.DeltaBaseHash(base), next, len(next)) {
					t.Fatal("delta encode")
				}
				rawRec(e, b.info.ID(), wire.KindDelta, de.Bytes())
			}
		})
		if err := rb.Apply(ext); err != nil {
			t.Fatalf("stream %d: extending body: %v", s.id, err)
		}
		objs, err := rb.Build(nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range s.blobs {
			if got := objs[b.info.ID()].(*blob); string(got.data) != string(b.data) {
				t.Errorf("stream %d: object %d after the extending body differs from the live one", s.id, b.info.ID())
			}
		}
	}
	if reads != 0 {
		t.Fatalf("recovering every stream read the file %d times; the test wants every run kept", reads)
	}

	// A replay CRC-checks every payload it reads, kept ones included, and
	// every segment of the log is in the chain of its own epoch: a kept
	// payload the rebuilder wrote fails its rewind with ErrCorrupt.
	for _, seg := range l.Segments() {
		if _, err := l.RewindTo(ckpt.NewRebuilder(reg), seg.Epoch); err != nil {
			t.Errorf("RewindTo(%d/%d) after the extending bodies: %v", seg.Epoch>>32, uint32(seg.Epoch), err)
		}
	}
	for _, s := range streams {
		rb := ckpt.NewRebuilder(reg)
		if _, err := l.RewindTo(rb, tenant.WireEpoch(s.id, s.e)); err != nil {
			t.Fatalf("stream %d: second rewind to its head: %v", s.id, err)
		}
		if got := rb.Digest(); got != recovered[s.id] {
			t.Errorf("stream %d: second rewind to its head = %s, the first = %s", s.id, got, recovered[s.id])
		}
	}
}
