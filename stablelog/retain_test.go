package stablelog_test

// Tests for the retention layer and time-travel recovery: policy semantics
// (binomial schedule, chain closure, the Compact degenerate), the epoch
// catalog, RewindTo equivalence against live per-epoch state, and the
// coherence validation Recover/RewindTo share. Cross-engine rewind
// equivalence lives in internal/difftest; these are the unit-level
// guarantees.

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"

	"ickpt/ckpt"
	"ickpt/internal/faultfs"
	"ickpt/stablelog"
	"ickpt/wire"
)

// cell is a minimal Restorable: one mutable value, no children.
type cell struct {
	info ckpt.Info
	v    int64
}

var _ ckpt.Restorable = (*cell)(nil)

func (c *cell) CheckpointInfo() *ckpt.Info    { return &c.info }
func (c *cell) CheckpointTypeID() ckpt.TypeID { return ckpt.TypeIDOf("stablelogtest.cell") }
func (c *cell) Record(e *wire.Encoder)        { e.Varint(c.v) }
func (c *cell) Fold(w *ckpt.Writer) error     { return nil }
func (c *cell) Restore(d *wire.Decoder, res *ckpt.Resolver) error {
	c.v = d.Varint()
	return nil
}

func cellRegistry(t *testing.T) *ckpt.Registry {
	t.Helper()
	reg := ckpt.NewRegistry()
	reg.MustRegister("stablelogtest.cell", func(id uint64) ckpt.Restorable {
		return &cell{info: ckpt.RestoredInfo(id)}
	})
	return reg
}

// cellHistory drives epochs checkpoints of a 3-cell population into a fresh
// log: a full checkpoint every fullEvery epochs, incrementals between,
// mutating one cell per epoch. It returns the log, the registry, and the
// live value of every cell as recorded at each epoch (epochs are 1-based).
func cellHistory(t *testing.T, path string, epochs, fullEvery int, opts ...stablelog.Option) (*stablelog.Log, *ckpt.Registry, map[uint64][]int64) {
	t.Helper()
	lg, err := stablelog.Create(path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	d := ckpt.NewDomain()
	cells := []*cell{
		{info: ckpt.NewInfo(d)},
		{info: ckpt.NewInfo(d)},
		{info: ckpt.NewInfo(d)},
	}
	wr := ckpt.NewWriter()
	want := make(map[uint64][]int64, epochs)
	for e := 1; e <= epochs; e++ {
		c := cells[e%len(cells)]
		c.v = int64(100*e + e%len(cells))
		c.info.SetModified()
		mode := ckpt.Incremental
		if (e-1)%fullEvery == 0 {
			mode = ckpt.Full
		}
		wr.Start(mode)
		for _, r := range cells {
			if err := wr.Checkpoint(r); err != nil {
				t.Fatal(err)
			}
		}
		body, _, err := wr.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if got := wr.Epoch(); got != uint64(e) {
			t.Fatalf("writer epoch %d at step %d", got, e)
		}
		if _, err := lg.Append(mode, uint64(e), body); err != nil {
			t.Fatal(err)
		}
		snap := make([]int64, len(cells))
		for i, c := range cells {
			snap[i] = c.v
		}
		want[uint64(e)] = snap
	}
	return lg, cellRegistry(t), want
}

// rewindValues rewinds a fresh rebuilder to epoch and returns the rebuilt
// cell values in id order.
func rewindValues(t *testing.T, lg *stablelog.Log, reg *ckpt.Registry, epoch uint64) []int64 {
	t.Helper()
	rb := ckpt.NewRebuilder(reg)
	if _, err := lg.RewindTo(rb, epoch); err != nil {
		t.Fatalf("RewindTo(%d): %v", epoch, err)
	}
	return builtValues(t, rb)
}

func builtValues(t *testing.T, rb *ckpt.Rebuilder) []int64 {
	t.Helper()
	objs, err := rb.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, 0, len(objs))
	for id := range objs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	out := make([]int64, 0, len(ids))
	for _, id := range ids {
		out = append(out, objs[id].(*cell).v)
	}
	return out
}

// TestRewindToEveryEpoch: before any retention, every epoch ever appended is
// rebuildable, and the rewound state equals the state recorded live at that
// epoch. One rebuilder must be reusable back and forth.
func TestRewindToEveryEpoch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rw.log")
	lg, reg, want := cellHistory(t, path, 12, 4)
	defer lg.Close()

	idx, err := lg.EpochIndex()
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Epochs(); len(got) != 12 || got[0] != 1 || got[11] != 12 {
		t.Fatalf("Epochs() = %v, want 1..12", got)
	}
	for e := uint64(1); e <= 12; e++ {
		if got := rewindValues(t, lg, reg, e); !slices.Equal(got, want[e]) {
			t.Errorf("epoch %d: rewound %v, want %v", e, got, want[e])
		}
	}

	// A single rebuilder travels backward and forward: every chain starts
	// with a full checkpoint, which resets it.
	rb := ckpt.NewRebuilder(reg)
	for _, e := range []uint64{12, 3, 7, 1, 12} {
		st, err := lg.RewindTo(rb, e)
		if err != nil {
			t.Fatalf("RewindTo(%d): %v", e, err)
		}
		wantBase := (e-1)/4*4 + 1
		if st.BaseEpoch != wantBase {
			t.Errorf("epoch %d: chain anchored at %d, want %d", e, st.BaseEpoch, wantBase)
		}
		if st.Segments != int(e-wantBase)+1 {
			t.Errorf("epoch %d: replayed %d segments, want %d", e, st.Segments, int(e-wantBase)+1)
		}
		if got := builtValues(t, rb); !slices.Equal(got, want[e]) {
			t.Errorf("epoch %d: rewound %v, want %v", e, got, want[e])
		}
	}
}

// TestRetainBinomialSchedule: the binomial policy keeps O(log T) segments,
// every epoch it retains still rewinds to the exact live state, and aged-out
// epochs fail with the structured unavailable error naming retained
// neighbors.
func TestRetainBinomialSchedule(t *testing.T) {
	const epochs, fullEvery = 64, 8
	path := filepath.Join(t.TempDir(), "bin.log")
	lg, reg, want := cellHistory(t, path, epochs, fullEvery)
	defer lg.Close()

	pol := stablelog.Binomial{Window: 4, Tail: 1}
	if err := lg.Retain(pol); err != nil {
		t.Fatalf("Retain: %v", err)
	}

	segs := lg.Segments()
	// O(log T) bound: the window, the latest run, and (1+Tail) segments per
	// power-of-two age bucket.
	bound := 4 + fullEvery + (1+1)*(bits.Len64(epochs)+1)
	if len(segs) > bound {
		t.Fatalf("retained %d of %d segments, want <= %d (O(log T))", len(segs), epochs, bound)
	}
	for i, seg := range segs {
		if seg.Seq != uint64(i+1) {
			t.Fatalf("segment %d renumbered to %d", i, seg.Seq)
		}
	}

	idx, err := lg.EpochIndex()
	if err != nil {
		t.Fatal(err)
	}
	retained := idx.Epochs()
	if latest := retained[len(retained)-1]; latest != epochs {
		t.Fatalf("latest retained epoch %d, want %d", latest, epochs)
	}
	for _, e := range retained {
		if got := rewindValues(t, lg, reg, e); !slices.Equal(got, want[e]) {
			t.Errorf("retained epoch %d: rewound %v, want %v", e, got, want[e])
		}
	}

	// Recent window is fully retained.
	for e := uint64(epochs - 3); e <= epochs; e++ {
		if !slices.Contains(retained, e) {
			t.Errorf("window epoch %d aged out", e)
		}
	}

	// An aged-out epoch reports its nearest retained neighbors.
	dropped := uint64(0)
	for e := uint64(1); e <= epochs; e++ {
		if !slices.Contains(retained, e) {
			dropped = e
			break
		}
	}
	if dropped == 0 {
		t.Fatal("binomial policy dropped nothing in 64 epochs")
	}
	rb := ckpt.NewRebuilder(reg)
	_, err = lg.RewindTo(rb, dropped)
	if !errors.Is(err, stablelog.ErrEpochUnavailable) {
		t.Fatalf("RewindTo(dropped %d) = %v, want ErrEpochUnavailable", dropped, err)
	}
	var ue *stablelog.EpochUnavailableError
	if !errors.As(err, &ue) {
		t.Fatalf("error %v is not an *EpochUnavailableError", err)
	}
	if ue.Epoch != dropped {
		t.Errorf("unavailable epoch reported as %d, want %d", ue.Epoch, dropped)
	}
	for _, n := range []uint64{ue.Before, ue.After} {
		if n != 0 && !slices.Contains(retained, n) {
			t.Errorf("neighbor %d is not a retained epoch", n)
		}
	}
	if ue.After == 0 || ue.After <= dropped {
		t.Errorf("After = %d, want a retained epoch > %d", ue.After, dropped)
	}
	if rb.Objects() != 0 {
		t.Errorf("failed rewind populated the rebuilder (%d objects)", rb.Objects())
	}

	// The newest state still recovers exactly as before retention.
	rb2 := ckpt.NewRebuilder(reg)
	if err := lg.Recover(rb2); err != nil {
		t.Fatal(err)
	}
	if got := builtValues(t, rb2); !slices.Equal(got, want[epochs]) {
		t.Errorf("post-retention Recover = %v, want %v", got, want[epochs])
	}
}

// TestRetainBinomialSublinear: over a 16× longer history the binomial policy's
// retained share of the log's bytes falls by well over the 2× a linear policy
// would manage, and a rewind anywhere in what is kept replays one full plus an
// incremental suffix, never more than a full cadence of segments.
func TestRetainBinomialSublinear(t *testing.T) {
	const fullEvery = 16
	pol := stablelog.Binomial{Window: 16, Tail: 2}
	frac := make(map[int]float64)
	for _, T := range []int{64, 1024} {
		lg, reg, _ := cellHistory(t, "sub.log", T, fullEvery, stablelog.WithFS(faultfs.NewMem()))
		size := func() (n int64) {
			for _, seg := range lg.Segments() {
				n += int64(seg.Length)
			}
			return n
		}
		total := size()
		if err := lg.Retain(pol); err != nil {
			t.Fatal(err)
		}
		frac[T] = float64(size()) / float64(total)

		idx, err := lg.EpochIndex()
		if err != nil {
			t.Fatal(err)
		}
		rb := ckpt.NewRebuilder(reg)
		for _, dist := range []int{1, T / 4, T / 2, T - 1} {
			// Rewind to the nearest retained epoch at or below head-dist, as
			// an undo would.
			epochs := idx.Epochs()
			target := epochs[0]
			for _, e := range epochs {
				if e <= uint64(T-dist) {
					target = e
				}
			}
			st, err := lg.RewindTo(rb, target)
			if err != nil {
				t.Fatalf("T=%d: RewindTo(%d): %v", T, target, err)
			}
			if st.Segments < 1 || st.Segments > fullEvery {
				t.Errorf("T=%d: RewindTo(%d) replayed %d segments, want 1..%d", T, target, st.Segments, fullEvery)
			}
		}
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if frac[1024] >= frac[64]/2 {
		t.Errorf("retained fraction fell only from %.3f (T=64) to %.3f (T=1024), want below half", frac[64], frac[1024])
	}
}

// TestRewindReadFaultLeavesRebuilderUnchanged: a transient read error (or a
// corrupt payload) mid-rewind must leave the rebuilder exactly as it was —
// the chain is read in full before anything applies.
func TestRewindReadFaultLeavesRebuilderUnchanged(t *testing.T) {
	m := faultfs.NewMem()
	lg, reg, want := cellHistory(t, "rwf.log", 8, 4, stablelog.WithFS(m))
	defer lg.Close()

	rb := ckpt.NewRebuilder(reg)
	if _, err := lg.RewindTo(rb, 3); err != nil {
		t.Fatal(err)
	}
	before := builtValues(t, rb)

	// The epoch-7 chain is segments 5,6,7, adjacent in the file: one gathered
	// read (TestReadRunOneReadPerContiguousRun), so that is the one to fail.
	m.FailRead(1, syscall.EIO)
	if _, err := lg.RewindTo(rb, 7); !errors.Is(err, stablelog.ErrIO) {
		t.Fatalf("faulted RewindTo = %v, want ErrIO", err)
	}
	if got := builtValues(t, rb); !slices.Equal(got, before) {
		t.Fatalf("rebuilder changed across failed rewind: %v != %v", got, before)
	}

	// With the fault gone the same rewind succeeds.
	if _, err := lg.RewindTo(rb, 7); err != nil {
		t.Fatal(err)
	}
	if got := builtValues(t, rb); !slices.Equal(got, want[7]) {
		t.Errorf("retried rewind = %v, want %v", got, want[7])
	}
}

// TestRewindToEpochZeroAndFuture: targets outside the written range fail
// with the unavailable error and sane neighbors.
func TestRewindToEpochZeroAndFuture(t *testing.T) {
	path := filepath.Join(t.TempDir(), "oob.log")
	lg, reg, _ := cellHistory(t, path, 4, 2)
	defer lg.Close()

	rb := ckpt.NewRebuilder(reg)
	var ue *stablelog.EpochUnavailableError
	if _, err := lg.RewindTo(rb, 0); !errors.As(err, &ue) {
		t.Fatalf("RewindTo(0) = %v", err)
	} else if ue.Before != 0 || ue.After != 1 {
		t.Errorf("RewindTo(0) neighbors = (%d, %d), want (0, 1)", ue.Before, ue.After)
	}
	if _, err := lg.RewindTo(rb, 99); !errors.As(err, &ue) {
		t.Fatalf("RewindTo(99) = %v", err)
	} else if ue.Before != 4 || ue.After != 0 {
		t.Errorf("RewindTo(99) neighbors = (%d, %d), want (4, 0)", ue.Before, ue.After)
	}
}

// keepSeqs is a test policy keeping an explicit set of sequence numbers.
type keepSeqs map[uint64]bool

func (k keepSeqs) Keep(segs []stablelog.SegmentInfo) []bool {
	out := make([]bool, len(segs))
	for i, seg := range segs {
		out[i] = k[seg.Seq]
	}
	return out
}

// TestRetainChainClosure: a policy that keeps an incremental while dropping
// its chain prefix cannot produce a broken log — the orphaned incremental is
// dropped with its prefix.
func TestRetainChainClosure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cc.log")
	lg, reg, want := cellHistory(t, path, 8, 4)
	defer lg.Close()

	// Keep seq 3 (an incremental of the first chain) without 1-2, plus seq 2
	// without 1. Both are orphans; only the forced latest run must survive.
	if err := lg.Retain(keepSeqs{2: true, 3: true}); err != nil {
		t.Fatalf("Retain: %v", err)
	}
	segs := lg.Segments()
	if len(segs) != 4 {
		t.Fatalf("retained %d segments, want the 4 of the latest run", len(segs))
	}
	if segs[0].Epoch != 5 || segs[0].Mode != ckpt.Full {
		t.Fatalf("retained run starts at %+v, want full@5", segs[0])
	}
	rb := ckpt.NewRebuilder(reg)
	if err := lg.Recover(rb); err != nil {
		t.Fatal(err)
	}
	if got := builtValues(t, rb); !slices.Equal(got, want[8]) {
		t.Errorf("Recover after closure repair = %v, want %v", got, want[8])
	}
}

// TestRetainPartialChainPrefix: keeping a full plus a prefix of its
// incrementals is legal and the kept epochs rewind exactly.
func TestRetainPartialChainPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pp.log")
	lg, reg, want := cellHistory(t, path, 8, 4)
	defer lg.Close()

	// First chain is seqs 1-4 (epochs 1-4); keep only 1-2.
	if err := lg.Retain(keepSeqs{1: true, 2: true}); err != nil {
		t.Fatal(err)
	}
	idx, err := lg.EpochIndex()
	if err != nil {
		t.Fatal(err)
	}
	wantEpochs := []uint64{1, 2, 5, 6, 7, 8}
	if got := idx.Epochs(); !slices.Equal(got, wantEpochs) {
		t.Fatalf("retained epochs %v, want %v", got, wantEpochs)
	}
	for _, e := range wantEpochs {
		if got := rewindValues(t, lg, reg, e); !slices.Equal(got, want[e]) {
			t.Errorf("epoch %d: rewound %v, want %v", e, got, want[e])
		}
	}
	// Epoch 3 fell between retained 2 and 5.
	var ue *stablelog.EpochUnavailableError
	if _, err := lg.RewindTo(ckpt.NewRebuilder(reg), 3); !errors.As(err, &ue) {
		t.Fatalf("RewindTo(3) = %v", err)
	} else if ue.Before != 2 || ue.After != 5 {
		t.Errorf("neighbors = (%d, %d), want (2, 5)", ue.Before, ue.After)
	}
}

// TestRetainPolicyMarkCountMismatch: a policy returning the wrong number of
// marks is a caller bug, reported before anything is rewritten.
type badLenPolicy struct{}

func (badLenPolicy) Keep(segs []stablelog.SegmentInfo) []bool { return make([]bool, 1) }

func TestRetainPolicyMarkCountMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bl.log")
	lg, _, _ := cellHistory(t, path, 4, 2)
	defer lg.Close()
	if err := lg.Retain(badLenPolicy{}); err == nil {
		t.Fatal("Retain accepted a mark/segment count mismatch")
	}
	if got := len(lg.Segments()); got != 4 {
		t.Fatalf("bad policy rewrote the log to %d segments", got)
	}
}

// TestCompactIsKeepLastRun: compaction is Retain(KeepLastRun{}), and it is
// deterministic — identical histories compact to byte-identical logs.
func TestCompactIsKeepLastRun(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.log")
	b := filepath.Join(dir, "b.log")
	la, _, _ := cellHistory(t, a, 9, 4)
	lb, _, _ := cellHistory(t, b, 9, 4)
	if err := la.Retain(stablelog.KeepLastRun{}); err != nil {
		t.Fatal(err)
	}
	if err := lb.Retain(stablelog.KeepLastRun{}); err != nil {
		t.Fatal(err)
	}
	if err := la.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lb.Close(); err != nil {
		t.Fatal(err)
	}
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db) {
		t.Error("two compactions of identical histories differ")
	}
}

// TestRecoverRejectsIncoherentRun: a CRC-valid run whose epochs are not
// strictly increasing must be rejected, not silently replayed; the same
// history fails EpochIndex and RewindTo.
func TestRecoverRejectsIncoherentRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "inc.log")
	lg, err := stablelog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	// Append is deliberately permissive (epochs are caller-owned); the
	// validation lives at replay time.
	if _, err := lg.Append(ckpt.Full, 5, []byte("full")); err != nil {
		t.Fatal(err)
	}
	if _, err := lg.Append(ckpt.Incremental, 3, []byte("delta")); err != nil {
		t.Fatal(err)
	}
	rb := ckpt.NewRebuilder(cellRegistry(t))
	if err := lg.Recover(rb); !errors.Is(err, stablelog.ErrIncoherent) {
		t.Fatalf("Recover = %v, want ErrIncoherent", err)
	}
	if rb.Objects() != 0 {
		t.Error("incoherent run partially applied")
	}
	if _, err := lg.EpochIndex(); !errors.Is(err, stablelog.ErrIncoherent) {
		t.Fatalf("EpochIndex = %v, want ErrIncoherent", err)
	}
	if _, err := lg.RewindTo(rb, 5); !errors.Is(err, stablelog.ErrIncoherent) {
		t.Fatalf("RewindTo = %v, want ErrIncoherent", err)
	}
}

// TestValidateRun enumerates the coherence violations.
func TestValidateRun(t *testing.T) {
	seg := func(seq, epoch uint64, m ckpt.Mode) stablelog.SegmentInfo {
		return stablelog.SegmentInfo{Seq: seq, Epoch: epoch, Mode: m}
	}
	cases := []struct {
		name string
		run  []stablelog.SegmentInfo
		ok   bool
	}{
		{"empty", nil, false},
		{"starts-incremental", []stablelog.SegmentInfo{seg(1, 1, ckpt.Incremental)}, false},
		{"single-full", []stablelog.SegmentInfo{seg(1, 1, ckpt.Full)}, true},
		{"chain", []stablelog.SegmentInfo{seg(3, 7, ckpt.Full), seg(4, 9, ckpt.Incremental)}, true},
		{"mid-run-full", []stablelog.SegmentInfo{seg(1, 1, ckpt.Full), seg(2, 2, ckpt.Full)}, false},
		// Other streams' segments sit between a shared log's run.
		{"seq-gap", []stablelog.SegmentInfo{seg(1, 1, ckpt.Full), seg(3, 2, ckpt.Incremental)}, true},
		{"seq-repeat", []stablelog.SegmentInfo{seg(2, 1, ckpt.Full), seg(2, 2, ckpt.Incremental)}, false},
		{"seq-decrease", []stablelog.SegmentInfo{seg(2, 1, ckpt.Full), seg(1, 2, ckpt.Incremental)}, false},
		{"two-streams", []stablelog.SegmentInfo{seg(1, 1<<32|1, ckpt.Full), seg(2, 2<<32|2, ckpt.Incremental)}, false},
		{"epoch-repeat", []stablelog.SegmentInfo{seg(1, 4, ckpt.Full), seg(2, 4, ckpt.Incremental)}, false},
		{"epoch-decrease", []stablelog.SegmentInfo{seg(1, 4, ckpt.Full), seg(2, 3, ckpt.Incremental)}, false},
	}
	for _, tc := range cases {
		err := stablelog.ValidateRun(tc.run)
		if tc.ok && err != nil {
			t.Errorf("%s: ValidateRun = %v, want nil", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, stablelog.ErrIncoherent) {
			t.Errorf("%s: ValidateRun = %v, want ErrIncoherent", tc.name, err)
		}
	}
}

// TestEpochIndexExtends: the catalog is maintained incrementally across
// appends — no O(n) rebuild per query — and survives a Retain rebuild.
func TestEpochIndexExtends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ext.log")
	lg, err := stablelog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	if _, err := lg.Append(ckpt.Full, 1, []byte("f")); err != nil {
		t.Fatal(err)
	}
	idx, err := lg.EpochIndex()
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Epochs(); !slices.Equal(got, []uint64{1}) {
		t.Fatalf("Epochs = %v", got)
	}
	for e := uint64(2); e <= 5; e++ {
		if _, err := lg.Append(ckpt.Incremental, e, []byte(fmt.Sprintf("d%d", e))); err != nil {
			t.Fatal(err)
		}
	}
	idx2, err := lg.EpochIndex()
	if err != nil {
		t.Fatal(err)
	}
	if got := idx2.Epochs(); !slices.Equal(got, []uint64{1, 2, 3, 4, 5}) {
		t.Fatalf("Epochs after appends = %v", got)
	}
	chain, err := idx2.Chain(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 3 || chain[0].Seq != 1 || chain[2].Seq != 3 {
		t.Fatalf("Chain(3) = %+v", chain)
	}
}
