package stablelog_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ickpt/ckpt"
	"ickpt/stablelog"
)

func TestOpenMissingFile(t *testing.T) {
	if _, err := stablelog.Open(filepath.Join(t.TempDir(), "nope.log")); err == nil {
		t.Error("Open of missing file succeeded")
	}
}

func TestOpenBadFileMagic(t *testing.T) {
	path := tempLogPath(t)
	if err := os.WriteFile(path, []byte("NOTALOG!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := stablelog.Open(path); !errors.Is(err, stablelog.ErrCorrupt) {
		t.Errorf("Open = %v, want ErrCorrupt", err)
	}
	// Truncation cannot rescue a bad file header.
	if _, err := stablelog.Open(path, stablelog.WithTruncateTorn()); !errors.Is(err, stablelog.ErrCorrupt) {
		t.Errorf("Open with truncate = %v, want ErrCorrupt", err)
	}
}

func TestOpenEmptyValidLog(t *testing.T) {
	path := tempLogPath(t)
	l, err := stablelog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := stablelog.Open(path)
	if err != nil {
		t.Fatalf("Open empty log: %v", err)
	}
	defer l2.Close()
	if len(l2.Segments()) != 0 {
		t.Errorf("segments = %d", len(l2.Segments()))
	}
	if _, err := l2.Append(ckpt.Full, 1, []byte("first")); err != nil {
		t.Errorf("Append to reopened empty log: %v", err)
	}
}

func TestCompactWithoutFullFails(t *testing.T) {
	path := tempLogPath(t)
	l, err := stablelog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(ckpt.Incremental, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Retain(stablelog.KeepLastRun{}); !errors.Is(err, stablelog.ErrNoFull) {
		t.Errorf("Compact = %v, want ErrNoFull", err)
	}
}

func TestWithSyncAppends(t *testing.T) {
	path := tempLogPath(t)
	l, err := stablelog.Create(path, stablelog.WithSync())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 3; i++ {
		if _, err := l.Append(ckpt.Incremental, uint64(i), []byte("synced")); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if len(l.Segments()) != 3 {
		t.Errorf("segments = %d", len(l.Segments()))
	}
}

func TestCorruptionInMiddleSegment(t *testing.T) {
	path := tempLogPath(t)
	l, err := stablelog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	var offsets []int64
	payload := []byte("sixteen byte pay")
	for i := 0; i < 3; i++ {
		if _, err := l.Append(ckpt.Incremental, uint64(i+1), payload); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, l.Segments()[i].Offset)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the middle segment's payload.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[offsets[1]+40] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Truncating recovery keeps only the prefix before the corruption.
	l2, err := stablelog.Open(path, stablelog.WithTruncateTorn())
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := len(l2.Segments()); got != 1 {
		t.Errorf("segments after mid-corruption = %d, want 1", got)
	}
}

func TestSegmentsReturnsCopy(t *testing.T) {
	path := tempLogPath(t)
	l, err := stablelog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(ckpt.Full, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	segs := l.Segments()
	segs[0].Seq = 999
	if l.Segments()[0].Seq != 1 {
		t.Error("Segments exposes internal state")
	}
}

func TestAsyncWriterFlushEmpty(t *testing.T) {
	path := tempLogPath(t)
	l, err := stablelog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	aw := stablelog.NewAsyncWriter(l)
	if err := aw.Flush(); err != nil {
		t.Errorf("Flush on empty queue: %v", err)
	}
	if err := aw.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestPath(t *testing.T) {
	path := tempLogPath(t)
	l, err := stablelog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Path() != path {
		t.Errorf("Path = %q", l.Path())
	}
}
