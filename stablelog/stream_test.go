package stablelog_test

// A shared log runs every chain operation per stream, so the single-stream
// log is the oracle for it: retention, rewind and the stream lookups on a log
// interleaving several streams must answer, stream by stream, exactly what
// they answer on a log holding that stream alone.

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ickpt/ckpt"
	"ickpt/internal/faultfs"
	"ickpt/stablelog"
)

// histSeg is one segment of a generated history.
type histSeg struct {
	mode  ckpt.Mode
	epoch uint64
	body  []byte
}

func streamOf(epoch uint64) uint32 { return uint32(epoch >> 32) }

// streamHistory interleaves n segments of random streams out of ids. Stream
// noFull only ever gets incrementals; every other stream starts with a Full
// and is re-anchored by a later Full one time in eight. Local epochs advance
// by one to three (an aborted epoch leaves a gap), and each body records one
// object whose id is its local epoch, so a rebuilder replayed from a chain
// holds one object per chain segment.
func streamHistory(rng *rand.Rand, ids []uint32, noFull uint32, n int) []histSeg {
	local := make(map[uint32]uint64)
	h := make([]histSeg, 0, n)
	for i := 0; i < n; i++ {
		id := ids[rng.Intn(len(ids))]
		mode := ckpt.Incremental
		if id != noFull && (local[id] == 0 || rng.Intn(8) == 0) {
			mode = ckpt.Full
		}
		local[id] += uint64(1 + rng.Intn(3))
		epoch := uint64(id)<<32 | local[id]
		h = append(h, histSeg{mode, epoch, v1Body(mode, epoch, local[id])})
	}
	return h
}

// logOf writes the segments of h whose stream in accepts into a fresh log.
func logOf(t *testing.T, h []histSeg, in func(id uint32) bool) *stablelog.Log {
	t.Helper()
	l, err := stablelog.Create("s.log", stablelog.WithFS(faultfs.NewMem()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	for _, s := range h {
		if !in(streamOf(s.epoch)) {
			continue
		}
		if _, err := l.Append(s.mode, s.epoch, s.body); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// epochsOf returns the epochs of stream id's segments, in log order.
func epochsOf(segs []stablelog.SegmentInfo, id uint32) []uint64 {
	var out []uint64
	for _, seg := range segs {
		if streamOf(seg.Epoch) == id {
			out = append(out, seg.Epoch)
		}
	}
	return out
}

// refStreamRun is the linear filter a stream's latest run is: its last Full
// and every later segment of the stream. nil stands for ErrNoFull.
func refStreamRun(segs []stablelog.SegmentInfo, id uint32) []stablelog.SegmentInfo {
	var run []stablelog.SegmentInfo
	for _, seg := range segs {
		if streamOf(seg.Epoch) != id {
			continue
		}
		if seg.Mode == ckpt.Full {
			run = run[:0]
		}
		run = append(run, seg)
	}
	if len(run) == 0 || run[0].Mode != ckpt.Full {
		return nil
	}
	return run
}

// binomialBound is the most segments of one stream's history h that
// Binomial{window, tail} may keep: the window back to the Full anchoring
// it, plus a Full and its tail per power-of-two age bucket.
func binomialBound(h []histSeg, window, tail int) int {
	head := h[len(h)-1].epoch
	start := len(h) - 1
	for start > 0 && head-h[start-1].epoch < uint64(window) {
		start--
	}
	for a := start; a >= 0; a-- {
		if h[a].mode == ckpt.Full {
			start = a
			break
		}
	}
	return len(h) - start + (1+tail)*bits.Len64(head-h[0].epoch)
}

func TestRetainPerStreamMatchesSingleStream(t *testing.T) {
	pool := []uint32{0, 1, 1 << 31, 0xFFFFFFFE, 5}
	const noFull = 13
	policies := []stablelog.RetentionPolicy{
		stablelog.KeepLastRun{}, stablelog.Binomial{}, stablelog.Binomial{Window: 4, Tail: 1},
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ids := slices.Clone(pool)
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		ids = ids[:1+rng.Intn(len(ids))]
		if rng.Intn(2) == 0 {
			ids = append(ids, noFull)
		}
		h := streamHistory(rng, ids, noFull, 40+rng.Intn(200))
		for _, pol := range policies {
			name := fmt.Sprintf("seed %d, %T%+v, streams %v", seed, pol, pol, ids)
			shared := logOf(t, h, func(uint32) bool { return true })
			if err := shared.Retain(pol); err != nil {
				t.Fatalf("%s: shared Retain: %v", name, err)
			}
			var anchored []uint32
			for _, id := range ids {
				alone := logOf(t, h, func(s uint32) bool { return s == id })
				err := alone.Retain(pol)
				got := epochsOf(shared.Segments(), id)
				if id == noFull {
					// Nothing replayable: alone, Retain refuses to rewrite;
					// shared, chain closure drops the whole stream.
					if !errors.Is(err, stablelog.ErrNoFull) || len(got) != 0 {
						t.Fatalf("%s: stream %d without a Full: alone Retain = %v, shared kept %v", name, id, err, got)
					}
					continue
				}
				anchored = append(anchored, id)
				if err != nil {
					t.Fatalf("%s: stream %d alone: Retain: %v", name, id, err)
				}

				// 1. The same epochs survive as on the stream's own log.
				want := epochsOf(alone.Segments(), id)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: stream %d kept %v, alone %v", name, id, got, want)
				}

				// 2. Every retained epoch rewinds to the same chain.
				rbS, rbA := ckpt.NewRebuilder(ckpt.NewRegistry()), ckpt.NewRebuilder(ckpt.NewRegistry())
				for _, e := range want {
					stS, errS := shared.RewindTo(rbS, e)
					stA, errA := alone.RewindTo(rbA, e)
					if errS != nil || errA != nil || stS != stA {
						t.Fatalf("%s: RewindTo(%#x): shared %+v, %v; alone %+v, %v", name, e, stS, errS, stA, errA)
					}
					if rbS.Objects() != stS.Segments || rbS.MaxID() != e&0xFFFFFFFF {
						t.Fatalf("%s: RewindTo(%#x) rebuilt %d objects up to id %d from a %d-segment chain",
							name, e, rbS.Objects(), rbS.MaxID(), stS.Segments)
					}
				}

				// 3. The binomial bound holds per stream.
				var own []histSeg
				for _, s := range h {
					if streamOf(s.epoch) == id {
						own = append(own, s)
					}
				}
				if b, ok := pol.(stablelog.Binomial); ok {
					window := b.Window
					if window <= 0 {
						window = 8
					}
					if bound := binomialBound(own, window, b.Tail); len(got) > bound {
						t.Fatalf("%s: stream %d kept %d of %d segments, bound %d", name, id, len(got), len(own), bound)
					}
				}

				// 4. The stream's latest run is the reference filter's.
				run, err := shared.StreamRun(id)
				if ref := refStreamRun(shared.Segments(), id); err != nil || !slices.Equal(run, ref) {
					t.Fatalf("%s: StreamRun(%d) = %v, %v\nwant %v", name, id, run, err, ref)
				}
				if _, ok := pol.(stablelog.KeepLastRun); ok && len(run) != len(got) {
					t.Fatalf("%s: compaction kept %d segments of stream %d, its run is %d", name, len(got), id, len(run))
				}
			}
			slices.Sort(anchored)
			if got := shared.StreamIDs(); !slices.Equal(got, anchored) {
				t.Fatalf("%s: StreamIDs after Retain = %v, want %v", name, got, anchored)
			}
			for i, seg := range shared.Segments() {
				if seg.Seq != uint64(i+1) {
					t.Fatalf("%s: segment %d renumbered to %d", name, i, seg.Seq)
				}
			}
		}
	}
}

// TestStreamIndexIncoherenceIsLocal: a stream whose epochs run backwards
// fails its own calls with ErrIncoherent and leaves its neighbours alone;
// the calls that name no stream refuse a shared log instead of answering
// with a run that mixes streams.
func TestStreamIndexIncoherenceIsLocal(t *testing.T) {
	good, bad := uint64(1)<<32, uint64(2)<<32
	l := logOf(t, []histSeg{
		{ckpt.Full, good | 1, v1Body(ckpt.Full, good|1, 1)},
		{ckpt.Full, bad | 5, v1Body(ckpt.Full, bad|5, 5)},
		{ckpt.Incremental, good | 2, v1Body(ckpt.Incremental, good|2, 2)},
		{ckpt.Incremental, bad | 3, v1Body(ckpt.Incremental, bad|3, 3)},
		{ckpt.Incremental, good | 3, v1Body(ckpt.Incremental, good|3, 3)},
	}, func(uint32) bool { return true })

	check := func(when string) {
		t.Helper()
		rb := ckpt.NewRebuilder(ckpt.NewRegistry())
		for _, e := range []uint64{good | 1, good | 2, good | 3} {
			if st, err := l.RewindTo(rb, e); err != nil || rb.MaxID() != e&0xFFFFFFFF {
				t.Fatalf("%s: RewindTo(%#x) on the healthy stream = %+v, %v", when, e, st, err)
			}
		}
		if _, err := l.RewindTo(rb, bad|5); !errors.Is(err, stablelog.ErrIncoherent) {
			t.Fatalf("%s: RewindTo on the incoherent stream = %v, want ErrIncoherent", when, err)
		}
		if rb.MaxID() != 3 {
			t.Fatalf("%s: a refused rewind changed the rebuilder", when)
		}
		if _, err := l.StreamRun(1); err != nil {
			t.Fatalf("%s: StreamRun(1) = %v", when, err)
		}
		if _, err := l.RecoveryRun(); !errors.Is(err, stablelog.ErrIncoherent) || !strings.Contains(err.Error(), "2 streams") {
			t.Fatalf("%s: RecoveryRun on a shared log = %v, want ErrIncoherent naming 2 streams", when, err)
		}
		if err := l.Recover(ckpt.NewRebuilder(ckpt.NewRegistry())); !errors.Is(err, stablelog.ErrIncoherent) {
			t.Fatalf("%s: Recover on a shared log = %v, want ErrIncoherent", when, err)
		}
		if _, err := l.EpochIndex(); !errors.Is(err, stablelog.ErrIncoherent) {
			t.Fatalf("%s: EpochIndex on a shared log = %v, want ErrIncoherent", when, err)
		}
	}
	check("before Retain")
	if err := l.Retain(stablelog.KeepLastRun{}); err != nil {
		t.Fatal(err)
	}
	if got := len(l.Segments()); got != 5 {
		t.Fatalf("compaction kept %d of 5 segments; every segment is in a latest run", got)
	}
	check("after Retain")
}

// TestStreamIndexEpochRestart: a stream whose epochs go backwards holds the
// same epoch twice. Its history since the last such point is addressable as
// on any stream — the latest run included, so Recover and RewindTo to the
// head agree — and a target or chain reaching back across it is refused.
func TestStreamIndexEpochRestart(t *testing.T) {
	seg := func(mode ckpt.Mode, epoch uint64) histSeg { return histSeg{mode, epoch, v1Body(mode, epoch, epoch)} }
	for _, tc := range []struct {
		name    string
		h       []histSeg
		rewinds map[uint64]int // epoch -> chain length; 0: ErrIncoherent
		recover bool
	}{
		{"restart at a full", []histSeg{
			seg(ckpt.Full, 1), seg(ckpt.Incremental, 2), seg(ckpt.Incremental, 3),
			seg(ckpt.Full, 1), seg(ckpt.Incremental, 2),
		}, map[uint64]int{1: 1, 2: 2, 3: 0}, true},
		{"restart mid-run", []histSeg{
			seg(ckpt.Full, 1), seg(ckpt.Incremental, 5), seg(ckpt.Incremental, 3), seg(ckpt.Incremental, 4),
		}, map[uint64]int{1: 0, 3: 0, 4: 0, 5: 0}, false},
		{"two restarts", []histSeg{
			seg(ckpt.Full, 4), seg(ckpt.Full, 2), seg(ckpt.Incremental, 9),
			seg(ckpt.Incremental, 3), seg(ckpt.Full, 6), seg(ckpt.Incremental, 7),
		}, map[uint64]int{2: 0, 3: 0, 4: 0, 6: 1, 7: 2, 9: 0}, true},
	} {
		for _, id := range []uint64{0, 3} { // alone, and beside a healthy stream 1
			h := tc.h
			if id != 0 {
				h = nil
				for i, s := range tc.h {
					e := 1<<32 | uint64(i+1)
					h = append(h, histSeg{s.mode, id<<32 | s.epoch, s.body}, histSeg{s.mode, e, v1Body(s.mode, e, uint64(i+1))})
				}
			}
			l := logOf(t, h, func(uint32) bool { return true })
			name := fmt.Sprintf("%s, stream %d", tc.name, id)
			rb := ckpt.NewRebuilder(ckpt.NewRegistry())
			for e, n := range tc.rewinds {
				st, err := l.RewindTo(rb, id<<32|e)
				if n == 0 && !errors.Is(err, stablelog.ErrIncoherent) || n > 0 && (err != nil || st.Segments != n) {
					t.Fatalf("%s: RewindTo(%d) = %+v, %v; want a %d-segment chain (0: ErrIncoherent)", name, e, st, err, n)
				}
			}
			if _, err := l.RewindTo(rb, 1<<32|1); id != 0 && err != nil {
				t.Fatalf("%s: the healthy stream beside it: %v", name, err)
			}
			run, err := l.StreamRun(uint32(id))
			if err != nil {
				t.Fatal(err)
			}
			_, rerr := l.RewindTo(rb, run[len(run)-1].Epoch)
			verr := stablelog.ValidateRun(run)
			if (rerr == nil) != tc.recover || (verr == nil) != tc.recover {
				t.Fatalf("%s: RewindTo to the head = %v, its run validates = %v; want recoverable %v", name, rerr, verr, tc.recover)
			}
			if id == 0 {
				if err := l.Recover(ckpt.NewRebuilder(ckpt.NewRegistry())); (err == nil) != tc.recover {
					t.Fatalf("%s: Recover = %v, want recoverable %v", name, err, tc.recover)
				}
				if _, err := l.EpochIndex(); !errors.Is(err, stablelog.ErrIncoherent) {
					t.Fatalf("%s: EpochIndex = %v, want ErrIncoherent", name, err)
				}
			}
		}
	}
}
