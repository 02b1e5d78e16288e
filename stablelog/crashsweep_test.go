package stablelog_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ickpt/ckpt"
	"ickpt/internal/faultfs"
	"ickpt/stablelog"
)

// TestCrashPointSweep is the crash-consistency property test: a log is
// written, then the file is truncated at every possible byte length
// (simulating a crash mid-write at that point). For every crash point,
// opening with WithTruncateTorn must recover exactly some prefix of the
// appended segments — never garbage, never a reordering, never a partial
// payload.
func TestCrashPointSweep(t *testing.T) {
	dir := t.TempDir()
	master := filepath.Join(dir, "master.log")
	l, err := stablelog.Create(master)
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{
		[]byte("full-checkpoint-body-0"),
		[]byte("delta-1"),
		{},
		[]byte("a longer incremental body with more content in it"),
		[]byte("delta-4"),
	}
	modes := []ckpt.Mode{ckpt.Full, ckpt.Incremental, ckpt.Incremental, ckpt.Full, ckpt.Incremental}
	for i, p := range payloads {
		if _, err := l.Append(modes[i], uint64(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(master)
	if err != nil {
		t.Fatal(err)
	}

	crashed := filepath.Join(dir, "crashed.log")
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(crashed, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		lg, err := stablelog.Open(crashed, stablelog.WithTruncateTorn())
		if err != nil {
			// Only a destroyed file header is unrecoverable.
			if cut >= 8 {
				t.Fatalf("cut=%d: Open failed: %v", cut, err)
			}
			if !errors.Is(err, stablelog.ErrCorrupt) {
				t.Fatalf("cut=%d: err = %v, want ErrCorrupt", cut, err)
			}
			continue
		}
		segs := lg.Segments()
		// The recovered segments must be a strict prefix with intact
		// payloads.
		if len(segs) > len(payloads) {
			t.Fatalf("cut=%d: %d segments, more than written", cut, len(segs))
		}
		for i, seg := range segs {
			if seg.Seq != uint64(i+1) || seg.Mode != modes[i] {
				t.Fatalf("cut=%d: segment %d header mismatch: %+v", cut, i, seg)
			}
			body, err := lg.Read(seg.Seq)
			if err != nil {
				t.Fatalf("cut=%d: Read(%d): %v", cut, seg.Seq, err)
			}
			if string(body) != string(payloads[i]) {
				t.Fatalf("cut=%d: segment %d payload corrupted", cut, i)
			}
		}
		// The recovery run, when available, starts at the latest full
		// checkpoint within the prefix.
		run, err := lg.RecoveryRun()
		switch {
		case len(segs) == 0:
			if !errors.Is(err, stablelog.ErrNoFull) {
				t.Fatalf("cut=%d: RecoveryRun = %v, want ErrNoFull", cut, err)
			}
		case err != nil:
			t.Fatalf("cut=%d: RecoveryRun: %v", cut, err)
		default:
			wantStart := uint64(1)
			if len(segs) >= 4 {
				wantStart = 4 // the second full checkpoint
			}
			if run[0].Seq != wantStart {
				t.Fatalf("cut=%d: recovery starts at %d, want %d", cut, run[0].Seq, wantStart)
			}
		}
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// --- Power-cut replay matrix via internal/faultfs ------------------------
//
// Each scenario runs a workload against a journaling in-memory filesystem,
// acknowledging durability facts with marks as the real API would report
// them to an application. The sweep then replays every crash point the
// journal admits — every op boundary in both the torn-prefix and the
// maximal-loss family, plus every byte split of every write — and asserts
// two properties at each one:
//
//  1. consistency: Open(WithTruncateTorn) recovers a log whose payloads are
//     a prefix of one of the scenario's possible histories — never garbage,
//     never a reordering, never a partial payload;
//  2. acknowledged durability: everything the application had been told was
//     durable before the cut is present in the recovered log.

const sweepLog = "sweep.log"

// crashExpectation is what one acknowledgment mark promises: the recovered
// log must contain exactly these payloads as a prefix.
type crashExpectation [][]byte

// runCrashSweep replays every crash point of m's journal. acks maps each
// mark label to the acceptable alternatives for the state acknowledged at
// that point — more than one when an equivalent rewrite (compaction) may
// legitimately have replaced the raw history.
func runCrashSweep(t *testing.T, m *faultfs.Mem, possible [][][]byte, acks map[string][]crashExpectation) {
	t.Helper()
	plan := m.CrashPlan()
	if len(plan) == 0 {
		t.Fatal("empty crash plan")
	}
	for _, p := range plan {
		state := m.CrashState(p)
		marks := m.CrashMarks(p)
		var expect []crashExpectation
		if len(marks) > 0 {
			e, ok := acks[marks[len(marks)-1]]
			if !ok {
				t.Fatalf("scenario bug: no expectation for mark %q", marks[len(marks)-1])
			}
			expect = e
		}
		desc := fmt.Sprintf("cut{op=%d partial=%d lossy=%v marks=%v}", p.Op, p.Partial, p.Lossy, marks)

		data, exists := state[sweepLog]
		if !exists {
			if expect != nil {
				t.Errorf("%s: log file vanished after acknowledgment", desc)
			}
			continue
		}
		reopened := faultfs.NewMemFromState(map[string][]byte{sweepLog: data})
		lg, err := stablelog.Open(sweepLog, stablelog.WithFS(reopened), stablelog.WithTruncateTorn())
		if err != nil {
			if expect != nil {
				t.Errorf("%s: recovery failed after acknowledgment: %v", desc, err)
			}
			continue
		}
		var got [][]byte
		for _, seg := range lg.Segments() {
			body, err := lg.Read(seg.Seq)
			if err != nil {
				t.Errorf("%s: Read(%d): %v", desc, seg.Seq, err)
			}
			got = append(got, body)
		}
		if err := lg.Close(); err != nil {
			t.Errorf("%s: Close: %v", desc, err)
		}

		// Consistency: prefix of some possible history.
		if !isPrefixOfAny(got, possible) {
			t.Errorf("%s: recovered %d segments that match no possible history: %q", desc, len(got), got)
		}
		// Acknowledged durability: some alternative must be fully present.
		if expect != nil && !containsAnyPrefix(got, expect) {
			t.Errorf("%s: recovered %q does not contain any acknowledged state %q", desc, got, expect)
		}
	}
}

// containsAnyPrefix reports whether got starts with at least one of the
// acknowledged alternatives (and is at least as long).
func containsAnyPrefix(got [][]byte, alternatives []crashExpectation) bool {
	for _, e := range alternatives {
		if len(got) < len(e) {
			continue
		}
		ok := true
		for i, want := range e {
			if !bytes.Equal(got[i], want) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func isPrefixOfAny(got [][]byte, possible [][][]byte) bool {
	for _, hist := range possible {
		if len(got) > len(hist) {
			continue
		}
		ok := true
		for i := range got {
			if !bytes.Equal(got[i], hist[i]) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestCrashSweepSyncedAppends: every synced Append that returned must
// survive any later power cut.
func TestCrashSweepSyncedAppends(t *testing.T) {
	m := faultfs.NewMem()
	l, err := stablelog.Create(sweepLog, stablelog.WithFS(m), stablelog.WithSync())
	if err != nil {
		t.Fatal(err)
	}
	m.Mark("created")
	payloads := [][]byte{
		[]byte("full-0"), []byte("delta-1"), {}, []byte("a longer delta body 3"),
	}
	modes := []ckpt.Mode{ckpt.Full, ckpt.Incremental, ckpt.Incremental, ckpt.Incremental}
	acks := map[string][]crashExpectation{"created": {{}}}
	for i, p := range payloads {
		if _, err := l.Append(modes[i], uint64(i+1), p); err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("ack-%d", i+1)
		m.Mark(label)
		acks[label] = []crashExpectation{crashExpectation(payloads[:i+1])}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	runCrashSweep(t, m, [][][]byte{payloads}, acks)
}

// TestCrashSweepUnsyncedAppends: un-synced appends may be lost, but the
// recovered log is always a clean prefix, and Close's fsync is an
// acknowledgment.
func TestCrashSweepUnsyncedAppends(t *testing.T) {
	m := faultfs.NewMem()
	l, err := stablelog.Create(sweepLog, stablelog.WithFS(m))
	if err != nil {
		t.Fatal(err)
	}
	m.Mark("created")
	payloads := [][]byte{
		[]byte("full-0"), []byte("delta-1"), []byte("delta-2"),
	}
	for i, p := range payloads {
		mode := ckpt.Incremental
		if i == 0 {
			mode = ckpt.Full
		}
		if _, err := l.Append(mode, uint64(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	m.Mark("closed")
	acks := map[string][]crashExpectation{"created": {{}}, "closed": {payloads}}
	runCrashSweep(t, m, [][][]byte{payloads}, acks)
}

// TestCrashSweepAsyncWriter: the async writer with a group-commit policy.
// Only Flush acknowledges durability.
func TestCrashSweepAsyncWriter(t *testing.T) {
	m := faultfs.NewMem()
	l, err := stablelog.Create(sweepLog, stablelog.WithFS(m))
	if err != nil {
		t.Fatal(err)
	}
	m.Mark("created")
	payloads := [][]byte{
		[]byte("full-0"), []byte("delta-1"), []byte("delta-2"), []byte("delta-3"), []byte("delta-4"),
	}
	aw := stablelog.NewAsyncWriter(l, stablelog.WithSyncEvery(2), stablelog.WithQueueLimit(2))
	for i, p := range payloads {
		mode := ckpt.Incremental
		if i == 0 {
			mode = ckpt.Full
		}
		if err := aw.Append(mode, uint64(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw.Flush(); err != nil {
		t.Fatal(err)
	}
	m.Mark("flushed")
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	acks := map[string][]crashExpectation{"created": {{}}, "flushed": {payloads}}
	runCrashSweep(t, m, [][][]byte{payloads}, acks)
}

// TestCrashSweepCompact: compaction must be atomic at every cut (the log is
// either the old history or the compacted one) and durable once Compact
// returns.
func TestCrashSweepCompact(t *testing.T) {
	m := faultfs.NewMem()
	l, err := stablelog.Create(sweepLog, stablelog.WithFS(m), stablelog.WithSync())
	if err != nil {
		t.Fatal(err)
	}
	m.Mark("created")
	payloads := [][]byte{
		[]byte("old-full"), []byte("old-delta"),
		[]byte("new-full"), []byte("delta-a"), []byte("delta-b"),
	}
	modes := []ckpt.Mode{ckpt.Full, ckpt.Incremental, ckpt.Full, ckpt.Incremental, ckpt.Incremental}
	compacted := [][]byte{[]byte("new-full"), []byte("delta-a"), []byte("delta-b")}
	acks := map[string][]crashExpectation{"created": {{}}}
	for i, p := range payloads {
		if _, err := l.Append(modes[i], uint64(i+1), p); err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("ack-%d", i+1)
		m.Mark(label)
		// Once the compaction's rename lands, an acknowledged raw history
		// may legitimately have been replaced by its compacted equivalent:
		// the recovery run is preserved, the dead prefix is not.
		acks[label] = []crashExpectation{crashExpectation(payloads[:i+1]), compacted}
	}
	if err := l.Retain(stablelog.KeepLastRun{}); err != nil {
		t.Fatal(err)
	}
	m.Mark("compacted")
	acks["compacted"] = []crashExpectation{compacted}

	post := []byte("post-compact-delta")
	if _, err := l.Append(ckpt.Incremental, 9, post); err != nil {
		t.Fatal(err)
	}
	m.Mark("post")
	withPost := append(append([][]byte{}, compacted...), post)
	acks["post"] = []crashExpectation{withPost}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	possible := [][][]byte{payloads, withPost}
	runCrashSweep(t, m, possible, acks)
}

// TestCrashSweepRetain: a binomial retention rewrite must be atomic at every
// cut — the log is either the full history or the retained one, never a
// mixture — and durable once Retain returns.
func TestCrashSweepRetain(t *testing.T) {
	m := faultfs.NewMem()
	l, err := stablelog.Create(sweepLog, stablelog.WithFS(m), stablelog.WithSync())
	if err != nil {
		t.Fatal(err)
	}
	m.Mark("created")
	// Epochs 1..10, fulls at 1, 4, 7, 10.
	var payloads [][]byte
	var modes []ckpt.Mode
	for e := 1; e <= 10; e++ {
		payloads = append(payloads, []byte(fmt.Sprintf("body-%d", e)))
		if (e-1)%3 == 0 {
			modes = append(modes, ckpt.Full)
		} else {
			modes = append(modes, ckpt.Incremental)
		}
	}
	// Binomial{Window: 2, Tail: 0} over epochs 1..10 (head 10): the window
	// keeps 9-10, closure pulls 8 and its full 7, and one full per age
	// bucket keeps 7, 4, and 1.
	retained := [][]byte{payloads[0], payloads[3], payloads[6], payloads[7], payloads[8], payloads[9]}
	acks := map[string][]crashExpectation{"created": {{}}}
	for i, p := range payloads {
		if _, err := l.Append(modes[i], uint64(i+1), p); err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("ack-%d", i+1)
		m.Mark(label)
		acks[label] = []crashExpectation{crashExpectation(payloads[:i+1]), retained}
	}
	if err := l.Retain(stablelog.Binomial{Window: 2}); err != nil {
		t.Fatal(err)
	}
	m.Mark("retained")
	acks["retained"] = []crashExpectation{retained}
	if got := len(l.Segments()); got != len(retained) {
		t.Fatalf("retained %d segments, expectation built for %d", got, len(retained))
	}

	post := []byte("post-retain-delta")
	if _, err := l.Append(ckpt.Incremental, 11, post); err != nil {
		t.Fatal(err)
	}
	m.Mark("post")
	withPost := append(append([][]byte{}, retained...), post)
	acks["post"] = []crashExpectation{withPost}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	possible := [][][]byte{payloads, withPost}
	runCrashSweep(t, m, possible, acks)

	t.Run("two-streams", crashSweepRetainStreams)
}

// crashSweepRetainStreams: compacting a log two streams share keeps each
// stream's latest run, atomically. At every cut the log is the raw history
// or the compacted one, and from the last append on, both streams recover
// their latest state.
func crashSweepRetainStreams(t *testing.T) {
	m := faultfs.NewMem()
	l, err := stablelog.Create(sweepLog, stablelog.WithFS(m), stablelog.WithSync())
	if err != nil {
		t.Fatal(err)
	}
	m.Mark("created")
	// Local epochs 1..6 of streams 1 and 2, interleaved; stream 1 is
	// re-anchored at 5, stream 2 at 6, so the file's last Full is stream 2's.
	lastFull := map[uint64]uint64{1: 5, 2: 6}
	var payloads, compacted [][]byte
	acks := map[string][]crashExpectation{"created": {{}}}
	for e := uint64(1); e <= 6; e++ {
		for _, s := range []uint64{1, 2} {
			mode := ckpt.Incremental
			if e == 1 || e == lastFull[s] {
				mode = ckpt.Full
			}
			body := v1Body(mode, s<<32|e, e)
			if _, err := l.Append(mode, s<<32|e, body); err != nil {
				t.Fatal(err)
			}
			payloads = append(payloads, body)
			if e >= lastFull[s] {
				compacted = append(compacted, body)
			}
			m.Mark(fmt.Sprintf("ack-%d", len(payloads)))
		}
	}
	for i := range payloads {
		acks[fmt.Sprintf("ack-%d", i+1)] = []crashExpectation{crashExpectation(payloads[:i+1]), compacted}
	}
	if err := l.Retain(stablelog.KeepLastRun{}); err != nil {
		t.Fatal(err)
	}
	m.Mark("retained")
	acks["retained"] = []crashExpectation{compacted}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	runCrashSweep(t, m, [][][]byte{payloads, compacted}, acks)

	whole := map[string]bool{fmt.Sprintf("ack-%d", len(payloads)): true, "retained": true}
	for _, p := range m.CrashPlan() {
		marks := m.CrashMarks(p)
		if len(marks) == 0 || !whole[marks[len(marks)-1]] {
			continue
		}
		desc := fmt.Sprintf("cut{op=%d partial=%d lossy=%v marks=%v}", p.Op, p.Partial, p.Lossy, marks)
		lg, err := stablelog.Open(sweepLog, stablelog.WithFS(faultfs.NewMemFromState(m.CrashState(p))), stablelog.WithTruncateTorn())
		if err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		for s, full := range lastFull {
			run, err := lg.StreamRun(uint32(s))
			if err != nil || run[0].Epoch != s<<32|full {
				t.Fatalf("%s: stream %d: run %v, %v; want it anchored at local epoch %d", desc, s, run, err, full)
			}
			rb := ckpt.NewRebuilder(ckpt.NewRegistry())
			if _, err := lg.RewindTo(rb, run[len(run)-1].Epoch); err != nil || rb.MaxID() != 6 {
				t.Fatalf("%s: stream %d does not recover its latest state: %v (max id %d)", desc, s, err, rb.MaxID())
			}
		}
		lg.Close()
	}
}

// TestCrashSweepRecoveryAfterRecovery: a crash during the truncation of a
// torn tail must itself be recoverable, at every cut point.
func TestCrashSweepRecoveryAfterRecovery(t *testing.T) {
	// Build a log whose tail is torn.
	m := faultfs.NewMem()
	l, err := stablelog.Create(sweepLog, stablelog.WithFS(m))
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{[]byte("full-0"), []byte("delta-1"), []byte("delta-2")}
	for i, p := range payloads {
		mode := ckpt.Incremental
		if i == 0 {
			mode = ckpt.Full
		}
		if _, err := l.Append(mode, uint64(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full := m.Snapshot()[sweepLog]

	// Tear the tail at several depths into the last segment, then crash at
	// every point of the *recovery* itself.
	for _, tear := range []int{1, 5, 10} {
		torn := full[:len(full)-tear]
		m2 := faultfs.NewMemFromState(map[string][]byte{sweepLog: torn})
		lg, err := stablelog.Open(sweepLog, stablelog.WithFS(m2), stablelog.WithTruncateTorn())
		if err != nil {
			t.Fatalf("tear %d: first recovery: %v", tear, err)
		}
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}
		// m2's journal now holds the recovery's truncate; sweep it.
		runCrashSweep(t, m2, [][][]byte{payloads}, map[string][]crashExpectation{})
	}
}
