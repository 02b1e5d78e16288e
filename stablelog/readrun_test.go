package stablelog_test

// ReadRun is the one place a replay chain's bytes come off the file:
// Recover, RewindTo, tenant.Recover and ckptinspect -verify all go through
// it. These tests pin what it costs by counting — one read for a contiguous
// run, allocations independent of the chain's length — and that it gives up none
// of the per-payload checks the per-segment Read loop it replaced made.

import (
	"errors"
	"os"
	"slices"
	"syscall"
	"testing"

	"ickpt/ckpt"
	"ickpt/ckpt/tenant"
	"ickpt/internal/faultfs"
	"ickpt/stablelog"
	"ickpt/wire"
)

// countFS counts the ReadAt calls made on files opened through it.
type countFS struct {
	faultfs.FS
	reads *int
}

type countFile struct {
	faultfs.File
	reads *int
}

func (c countFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countFile{f, c.reads}, nil
}

func (f countFile) ReadAt(p []byte, off int64) (int, error) {
	*f.reads++
	return f.File.ReadAt(p, off)
}

// v1Body is a version-1 body whose records each carry one payload byte.
func v1Body(mode ckpt.Mode, epoch uint64, ids ...uint64) []byte {
	e := wire.NewEncoder(32)
	e.Byte(1)
	e.Byte(byte(mode))
	e.Uvarint(epoch)
	for _, id := range ids {
		e.Uvarint(id)
		e.Uvarint(1)
		e.Uvarint(1)
		e.Byte(byte(epoch))
	}
	return e.Bytes()
}

// countedLog is an open log over an in-memory filesystem: a Full and n-1
// incrementals of one stream, with reads counted from here on.
func countedLog(t *testing.T, n int) (*stablelog.Log, *faultfs.Mem, *int) {
	t.Helper()
	m, reads := faultfs.NewMem(), new(int)
	l, err := stablelog.Create("r.log", stablelog.WithFS(countFS{m, reads}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	for e := uint64(1); e <= uint64(n); e++ {
		mode := ckpt.Incremental
		if e == 1 {
			mode = ckpt.Full
		}
		if _, err := l.Append(mode, e, v1Body(mode, e, e, 1)); err != nil {
			t.Fatal(err)
		}
	}
	*reads = 0
	return l, m, reads
}

func TestReadRunOneReadPerContiguousRun(t *testing.T) {
	for _, n := range []int{1, 2, 9, 64} {
		l, _, reads := countedLog(t, n)
		rb := ckpt.NewRebuilder(ckpt.NewRegistry())
		if err := l.Recover(rb); err != nil {
			t.Fatal(err)
		}
		if *reads != 1 {
			t.Errorf("Recover of a contiguous %d-segment run issued %d reads, want 1", n, *reads)
		}
		if rb.Objects() != n {
			t.Errorf("recovered %d objects from %d segments", rb.Objects(), n)
		}
	}

	// One segment left out of the middle: no longer one span of the file, so
	// it is read like an interleaved run — a read per segment — and every
	// body is still the one Read returns for its segment. (Coalescing the two
	// spans would make the read count of a shared log depend on which of a
	// tenant's segments the scheduler happened to write back to back.)
	l, _, reads := countedLog(t, 9)
	segs := l.Segments()
	gappy := slices.Concat(segs[:4], segs[5:])
	bodies, err := l.ReadRun(gappy)
	if err != nil {
		t.Fatal(err)
	}
	if *reads != len(gappy) {
		t.Errorf("a run with a gap issued %d reads, want %d", *reads, len(gappy))
	}
	for i, seg := range gappy {
		want, err := l.Read(seg.Seq)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(bodies[i], want) {
			t.Errorf("ReadRun body %d (seq %d) = %x, Read = %x", i, seg.Seq, bodies[i], want)
		}
		if cap(bodies[i]) != len(bodies[i]) {
			t.Errorf("body %d can be appended into its neighbour (len %d, cap %d)", i, len(bodies[i]), cap(bodies[i]))
		}
	}
	if _, err := l.ReadRun([]stablelog.SegmentInfo{{Seq: 10}}); !errors.Is(err, stablelog.ErrNotFound) {
		t.Errorf("ReadRun of a segment past the end = %v, want ErrNotFound", err)
	}
}

// TestReadRunAllocsIndependentOfLength: the bodies of a run are one
// allocation, not one per segment.
func TestReadRunAllocsIndependentOfLength(t *testing.T) {
	allocs := func(n int) float64 {
		l, _, _ := countedLog(t, n)
		run, err := l.RecoveryRun()
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := l.ReadRun(run); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(4), allocs(256)
	if short != long || long > 3 {
		t.Errorf("ReadRun allocations: %.0f for 4 segments, %.0f for 256; want equal and at most 3", short, long)
	}
}

// TestReadRunInterleavedStreams: in a shared log a tenant's chain is not
// contiguous, so tenant.Recover reads once per segment — but still into one
// buffer — and the bodies it applies are the tenant's own.
func TestReadRunInterleavedStreams(t *testing.T) {
	const tenants, rounds = 3, 8
	m, reads := faultfs.NewMem(), new(int)
	l, err := stablelog.Create("t.log", stablelog.WithFS(countFS{m, reads}))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for round := uint64(1); round <= rounds; round++ {
		for id := uint32(1); id <= tenants; id++ {
			mode := ckpt.Incremental
			if round == 1 {
				mode = ckpt.Full
			}
			body := v1Body(mode, round, uint64(id)*100+round)
			if _, err := l.Append(mode, tenant.WireEpoch(id, round), body); err != nil {
				t.Fatal(err)
			}
		}
	}
	for id := uint32(1); id <= tenants; id++ {
		*reads = 0
		rb := ckpt.NewRebuilder(ckpt.NewRegistry())
		if err := tenant.Recover(l, id, rb); err != nil {
			t.Fatal(err)
		}
		if *reads != rounds {
			t.Errorf("tenant %d: %d reads for a %d-segment interleaved run, want one each", id, *reads, rounds)
		}
		if rb.Objects() != rounds || rb.MaxID() != uint64(id)*100+rounds {
			t.Errorf("tenant %d: recovered %d objects, max id %d", id, rb.Objects(), rb.MaxID())
		}
	}
	run, err := l.StreamRun(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() {
		if _, err := l.ReadRun(run); err != nil {
			t.Fatal(err)
		}
	}); got > 3 {
		t.Errorf("ReadRun of an interleaved %d-segment run made %.0f allocations, want at most 3", rounds, got)
	}
}

// TestReadRunKeepsPerPayloadChecks: a gathered read is still checked payload
// by payload — a flipped byte anywhere in the span is ErrCorrupt naming its
// segment, a failed read is ErrIO — and either way nothing reaches the
// rebuilder.
func TestReadRunKeepsPerPayloadChecks(t *testing.T) {
	l, m, _ := countedLog(t, 6)
	rb := ckpt.NewRebuilder(ckpt.NewRegistry())
	if err := l.Recover(rb); err != nil {
		t.Fatal(err)
	}
	want := rb.Objects()

	m.FailRead(1, syscall.EIO)
	if err := l.Recover(rb); !errors.Is(err, stablelog.ErrIO) || errors.Is(err, stablelog.ErrCorrupt) {
		t.Fatalf("Recover under a read fault = %v, want ErrIO", err)
	}

	// Open's scan catches on-disk damage first, so reach ReadRun's own check
	// the way a device that rots after Open would: flip the byte under an
	// already-open log.
	for _, seg := range l.Segments() {
		fm := faultfs.NewMemFromState(m.Snapshot())
		fl, err := stablelog.Open("r.log", stablelog.WithFS(fm))
		if err != nil {
			t.Fatal(err)
		}
		f, err := fm.OpenFile("r.log", os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		at := seg.Offset + imgHdrSize + int64(seg.Length) - 1
		var b [1]byte
		if _, err := f.ReadAt(b[:], at); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x40
		if _, err := f.WriteAt(b[:], at); err != nil {
			t.Fatal(err)
		}
		f.Close()
		frb := ckpt.NewRebuilder(ckpt.NewRegistry())
		err = fl.Recover(frb)
		if !errors.Is(err, stablelog.ErrCorrupt) {
			t.Errorf("seq %d: Recover over a rotted payload = %v, want ErrCorrupt", seg.Seq, err)
		}
		if frb.Objects() != 0 {
			t.Errorf("seq %d: rejected run left %d objects", seg.Seq, frb.Objects())
		}
		fl.Close()
	}
	if rb.Objects() != want {
		t.Errorf("rebuilder changed across failed recoveries: %d objects, was %d", rb.Objects(), want)
	}
}

// TestRewindToAllocatesOnlyItsReadAndApply: RewindTo copies no chain of its
// own — it replays the catalog's segments through a scratch slice the log
// keeps — so it allocates what its read and its apply do, and nothing more.
// Copying each chain into a []SegmentInfo of its own cost one allocation
// more per rewind.
func TestRewindToAllocatesOnlyItsReadAndApply(t *testing.T) {
	const n = 256
	l, _, _ := countedLog(t, n)
	run, err := l.RecoveryRun()
	if err != nil {
		t.Fatal(err)
	}
	bodies, err := l.ReadRun(run)
	if err != nil {
		t.Fatal(err)
	}
	read := testing.AllocsPerRun(20, func() {
		if _, err := l.ReadRun(run); err != nil {
			t.Fatal(err)
		}
	})
	arb := ckpt.NewRebuilder(ckpt.NewRegistry())
	apply := testing.AllocsPerRun(20, func() {
		if err := arb.ApplyRun(bodies); err != nil {
			t.Fatal(err)
		}
	})
	rb := ckpt.NewRebuilder(ckpt.NewRegistry())
	rewind := testing.AllocsPerRun(20, func() {
		if st, err := l.RewindTo(rb, n); err != nil || st.Segments != n {
			t.Fatalf("RewindTo(%d) = %+v, %v", n, st, err)
		}
	})
	if rewind > read+apply {
		t.Errorf("RewindTo of a %d-segment chain made %.0f allocations; its read makes %.0f and its apply %.0f", n, rewind, read, apply)
	}
}
