package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ickpt/ckpt"
	"ickpt/ckpt/tenant"
	"ickpt/internal/synth"
	"ickpt/stablelog"
	"ickpt/wire"
)

func silence(t *testing.T) {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = old
		devnull.Close()
	})
}

// buildLog writes a small synthetic log: one full + two incrementals.
func buildLog(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "inspect.log")
	lg, err := stablelog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()

	w := synth.Build(synth.Shape{Structures: 4, ListLen: 2, Kind: synth.Ints1})
	wr := ckpt.NewWriter()
	add := func(mode ckpt.Mode) {
		wr.Start(mode)
		if err := w.CheckpointGeneric(wr); err != nil {
			t.Fatal(err)
		}
		body, _, err := wr.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lg.Append(mode, wr.Epoch(), body); err != nil {
			t.Fatal(err)
		}
	}
	add(ckpt.Full)
	w.TouchAll()
	add(ckpt.Incremental)
	add(ckpt.Incremental) // quiescent: zero records
	return path
}

// statBlob is a flat fixed-width payload for exercising the delta paths.
type statBlob struct {
	info ckpt.Info
	data []byte
}

var statBlobType = ckpt.TypeIDOf("ckptinspect.statBlob")

func (b *statBlob) CheckpointInfo() *ckpt.Info    { return &b.info }
func (b *statBlob) CheckpointTypeID() ckpt.TypeID { return statBlobType }
func (b *statBlob) Record(e *wire.Encoder)        { e.BytesField(b.data) }
func (b *statBlob) Fold(*ckpt.Writer) error       { return nil }

// deltaBodies returns a full body and a delta-bearing incremental body for
// one mutated blob, written by a delta-encoding writer.
func deltaBodies(t *testing.T) (full, incr []byte, epochs [2]uint64) {
	t.Helper()
	blob := &statBlob{info: ckpt.NewInfo(ckpt.NewDomain()), data: bytes.Repeat([]byte{0xAB}, 2048)}
	wr := ckpt.NewWriter(ckpt.WithDeltaEncoding(0))
	take := func(mode ckpt.Mode) ([]byte, uint64) {
		wr.Start(mode)
		if err := wr.Checkpoint(blob); err != nil {
			t.Fatal(err)
		}
		body, _, err := wr.Finish()
		if err != nil {
			t.Fatal(err)
		}
		// Finish returns a view into the writer's buffer; the next Start
		// overwrites it, so keep a copy.
		return append([]byte(nil), body...), wr.Epoch()
	}
	full, epochs[0] = take(ckpt.Full)
	blob.data[100] ^= 0xFF
	blob.info.Mark()
	incr, epochs[1] = take(ckpt.Incremental)
	info, err := ckpt.InspectBodyKinds(incr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Deltas == 0 {
		t.Fatal("incremental body carries no delta records; fixture broken")
	}
	return full, incr, epochs
}

// buildDeltaLog writes a coherent full + delta-incremental log.
func buildDeltaLog(t *testing.T) string {
	t.Helper()
	full, incr, epochs := deltaBodies(t)
	path := filepath.Join(t.TempDir(), "delta.log")
	lg, err := stablelog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	if _, err := lg.Append(ckpt.Full, epochs[0], full); err != nil {
		t.Fatal(err)
	}
	if _, err := lg.Append(ckpt.Incremental, epochs[1], incr); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStatsLog runs the -stats accounting over a delta-bearing log (encoded
// bytes must undercut raw) and over a plain log (the two must be equal).
func TestStatsLog(t *testing.T) {
	silence(t)
	if err := statsLog(buildDeltaLog(t)); err != nil {
		t.Errorf("stats on delta log: %v", err)
	}
	if err := statsLog(buildLog(t)); err != nil {
		t.Errorf("stats on plain log: %v", err)
	}
}

// TestVerifyDeltaLog checks -verify accepts a coherent delta chain and
// rejects — by name — a delta whose base never made it into the run.
func TestVerifyDeltaLog(t *testing.T) {
	silence(t)
	if err := verifyLog(buildDeltaLog(t)); err != nil {
		t.Errorf("verify coherent delta log: %v", err)
	}

	// Anchor the same delta incremental to a full that lacks the object:
	// framing, checksums and the segment chain are all fine, but the patch
	// has no base.
	_, incr, epochs := deltaBodies(t)
	empty := ckpt.NewWriter()
	empty.Start(ckpt.Full)
	emptyBody, _, err := empty.Finish()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseless.log")
	lg, err := stablelog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lg.Append(ckpt.Full, epochs[0], emptyBody); err != nil {
		t.Fatal(err)
	}
	if _, err := lg.Append(ckpt.Incremental, epochs[1], incr); err != nil {
		t.Fatal(err)
	}
	lg.Close()
	err = verifyLog(path)
	if err == nil {
		t.Fatal("verify accepted a baseless delta")
	}
	if !errors.Is(err, ckpt.ErrDeltaBase) {
		t.Errorf("baseless delta rejected as %v, want ErrDeltaBase", err)
	}
}

func TestInspectBasicAndOptions(t *testing.T) {
	silence(t)
	path := buildLog(t)
	if err := run(path, false, false, ""); err != nil {
		t.Errorf("run: %v", err)
	}
	if err := run(path, true, true, ""); err != nil {
		t.Errorf("run -records -types: %v", err)
	}
}

func TestInspectDiff(t *testing.T) {
	silence(t)
	path := buildLog(t)
	if err := run(path, false, false, "1,2"); err != nil {
		t.Errorf("diff 1,2: %v", err)
	}
	if err := run(path, false, false, "2,3"); err != nil {
		t.Errorf("diff 2,3: %v", err)
	}
	for _, bad := range []string{"1", "a,b", "1,99"} {
		if err := run(path, false, false, bad); err == nil {
			t.Errorf("diff %q accepted", bad)
		}
	}
}

func TestInspectMissingFile(t *testing.T) {
	if err := run(filepath.Join(t.TempDir(), "nope.log"), false, false, ""); err == nil {
		t.Error("missing log accepted")
	}
}

func TestVerifyIntactLog(t *testing.T) {
	silence(t)
	path := buildLog(t)
	if err := verifyLog(path); err != nil {
		t.Errorf("verify intact log: %v", err)
	}
	// A stale compaction temp file is worth a warning but is not a problem:
	// the next compaction removes it.
	if err := os.WriteFile(path+".compact", []byte("leftovers"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := verifyLog(path); err != nil {
		t.Errorf("verify with stale .compact: %v", err)
	}
}

func TestVerifyEmptyLog(t *testing.T) {
	silence(t)
	path := filepath.Join(t.TempDir(), "empty.log")
	lg, err := stablelog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	lg.Close()
	if err := verifyLog(path); err != nil {
		t.Errorf("verify empty log: %v", err)
	}
}

func TestVerifyTornTail(t *testing.T) {
	silence(t)
	path := buildLog(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := verifyLog(path); err == nil {
		t.Error("verify accepted a torn tail")
	}
}

// TestVerifyIncoherentChain appends an incremental whose epoch runs
// backwards from its anchoring full: framing and checksums are fine, but the
// chain is incoherent and -verify must reject it.
func TestVerifyIncoherentChain(t *testing.T) {
	silence(t)
	path := filepath.Join(t.TempDir(), "incoherent.log")
	lg, err := stablelog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	wr := ckpt.NewWriter()
	add := func(mode ckpt.Mode, epoch uint64) {
		wr.Start(mode)
		body, _, err := wr.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lg.Append(mode, epoch, body); err != nil {
			t.Fatal(err)
		}
	}
	add(ckpt.Full, 5)
	add(ckpt.Incremental, 3)
	lg.Close()
	if err := verifyLog(path); err == nil {
		t.Error("verify accepted an incoherent epoch chain")
	}

	// The same chain as stream 2 of a shared log, beside a healthy stream 1:
	// the command rejects the log and names the stream.
	path = filepath.Join(t.TempDir(), "incoherent-shared.log")
	if lg, err = stablelog.Create(path); err != nil {
		t.Fatal(err)
	}
	w := synth.Build(synth.Shape{Structures: 4, ListLen: 2, Kind: synth.Ints1})
	appendTenant(t, lg, w, 1, ckpt.Full, 1)
	appendTenant(t, lg, nil, 2, ckpt.Full, 5)
	appendTenant(t, lg, w, 1, ckpt.Incremental, 2)
	appendTenant(t, lg, nil, 2, ckpt.Incremental, 3)
	lg.Close()
	if err := verifyLog(path); err == nil || !strings.Contains(err.Error(), "stream 2") {
		t.Errorf("verify of a shared log with incoherent stream 2 = %v, want an error naming stream 2", err)
	}
}

// appendTenant appends one checkpoint of w (nil: an empty body) at a
// tenant's local epoch, as ckpt/tenant writes a shared log.
func appendTenant(t *testing.T, lg *stablelog.Log, w *synth.Workload, id uint32, mode ckpt.Mode, local uint64) {
	t.Helper()
	wr := ckpt.NewWriter()
	wr.StartAt(mode, tenant.WireEpoch(id, local))
	if w != nil {
		if err := w.CheckpointGeneric(wr); err != nil {
			t.Fatal(err)
		}
	}
	body, _, err := wr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lg.Append(mode, tenant.WireEpoch(id, local), body); err != nil {
		t.Fatal(err)
	}
}

// TestVerifySharedLog: two tenants' chains interleaved in one log are two
// healthy streams, each verified and recovered on its own, not one
// incoherent chain.
func TestVerifySharedLog(t *testing.T) {
	silence(t)
	path := filepath.Join(t.TempDir(), "shared.log")
	lg, err := stablelog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	loads := map[uint32]*synth.Workload{
		1: synth.Build(synth.Shape{Structures: 4, ListLen: 2, Kind: synth.Ints1}),
		2: synth.Build(synth.Shape{Structures: 6, ListLen: 3, Kind: synth.Ints1}),
	}
	epochs := func() {
		for _, id := range []uint32{1, 2} {
			appendTenant(t, lg, loads[id], id, ckpt.Full, 1)
		}
		for _, id := range []uint32{1, 2} {
			loads[id].TouchAll()
			appendTenant(t, lg, loads[id], id, ckpt.Incremental, 2)
		}
		lg.Close()
	}
	epochs()
	if err := verifyLog(path); err != nil {
		t.Errorf("verify of a healthy shared log: %v", err)
	}

	// A writer that restarted its tenants' numbering at 1 left every stream
	// with a repeated epoch; each latest run still recovers, so the log
	// verifies (with a warning per stream).
	if lg, err = stablelog.Open(path); err != nil {
		t.Fatal(err)
	}
	epochs()
	if err := verifyLog(path); err != nil {
		t.Errorf("verify of a shared log whose tenants restarted their epochs: %v", err)
	}
}

func TestVerifyNoFullCheckpoint(t *testing.T) {
	silence(t)
	path := filepath.Join(t.TempDir(), "nofull.log")
	lg, err := stablelog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	wr := ckpt.NewWriter()
	wr.Start(ckpt.Incremental)
	body, _, err := wr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lg.Append(ckpt.Incremental, 1, body); err != nil {
		t.Fatal(err)
	}
	lg.Close()
	if err := verifyLog(path); err == nil {
		t.Error("verify accepted a log with no recoverable full checkpoint")
	}
}
