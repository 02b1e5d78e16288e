package stablelog_test

// On a shared log, Open keeps the payloads its scan verifies, from the second
// stream's first segment on, and ReadRun serves them in place instead of
// reading the file again. These tests hold every kept payload to the file's bytes, count
// the reads a restart's chains make, and follow the kept bytes through their
// life: kept by Open, dropped by the first write, by Retain and by Close,
// and never kept on a single-stream log or past the budget.

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"ickpt/ckpt"
	"ickpt/internal/faultfs"
	"ickpt/stablelog"
)

// sharedHistory drives three streams of three cells each into a fresh log
// "s.log" on m: stream 1 alone for its first two epochs, then streams 1, 2
// and 3 round-robin, each with a Full every fourth of its epochs and one
// cell mutated per epoch. It returns the log, the registry, and every
// stream's cell values as recorded at each of its epochs, by log epoch
// (stream<<32 | epoch).
func sharedHistory(t *testing.T, m *faultfs.Mem, rounds int) (*stablelog.Log, *ckpt.Registry, map[uint64][]int64) {
	t.Helper()
	lg, err := stablelog.Create("s.log", stablelog.WithFS(m))
	if err != nil {
		t.Fatal(err)
	}
	type stream struct {
		cells []*cell
		wr    *ckpt.Writer
		e     uint64
	}
	streams := make([]*stream, 3)
	for i := range streams {
		d := ckpt.NewDomain()
		s := &stream{wr: ckpt.NewWriter()}
		for range 3 {
			s.cells = append(s.cells, &cell{info: ckpt.NewInfo(d)})
		}
		streams[i] = s
	}
	want := make(map[uint64][]int64)
	for round := 1; round <= rounds; round++ {
		for i, s := range streams {
			if i > 0 && round <= 2 {
				continue
			}
			s.e++
			c := s.cells[s.e%3]
			c.v = int64(1000*(i+1)) + int64(s.e)
			c.info.SetModified()
			mode := ckpt.Incremental
			if (s.e-1)%4 == 0 {
				mode = ckpt.Full
			}
			s.wr.Start(mode)
			for _, r := range s.cells {
				if err := s.wr.Checkpoint(r); err != nil {
					t.Fatal(err)
				}
			}
			body, _, err := s.wr.Finish()
			if err != nil {
				t.Fatal(err)
			}
			epoch := uint64(i+1)<<32 | s.e
			if _, err := lg.Append(mode, epoch, body); err != nil {
				t.Fatal(err)
			}
			snap := make([]int64, len(s.cells))
			for k, c := range s.cells {
				snap[k] = c.v
			}
			want[epoch] = snap
		}
	}
	return lg, cellRegistry(t), want
}

// refChain is the replay chain for epoch picked out of segs by a linear
// filter: its stream's last Full at or before it, through it.
func refChain(segs []stablelog.SegmentInfo, epoch uint64) []stablelog.SegmentInfo {
	var run []stablelog.SegmentInfo
	for _, seg := range segs {
		if seg.Epoch>>32 != epoch>>32 || seg.Epoch > epoch {
			continue
		}
		if seg.Mode == ckpt.Full {
			run = run[:0]
		}
		run = append(run, seg)
	}
	return run
}

// chainReads is what reading chain costs when kept says which payloads the
// handle kept: nothing for a kept segment, one read per other segment, and
// one read in all for a chain that is a single span of the file, none of it
// kept.
func chainReads(chain []stablelog.SegmentInfo, kept func(seq uint64) bool) int {
	n, span := 0, true
	for i, seg := range chain {
		if kept(seg.Seq) {
			span = false
			continue
		}
		n++
		if i > 0 && seg.Seq != chain[i-1].Seq+1 {
			span = false
		}
	}
	if span && n > 0 {
		return 1
	}
	return n
}

// checkChains reads and replays, on l, the chain of every epoch in the log
// and the latest run of every stream. Each must read the file exactly as
// chainReads says for kept; each RewindTo must rebuild want's values; and,
// with ref non-nil, each body ReadRun returns must be byte-identical to
// ref.Read of its segment.
func checkChains(t *testing.T, when string, l, ref *stablelog.Log, reads *int, kept func(seq uint64) bool,
	reg *ckpt.Registry, want map[uint64][]int64) {
	t.Helper()
	segs := l.Segments()
	for _, seg := range segs {
		if p, ok := l.Kept(seg.Seq); ok != kept(seg.Seq) {
			t.Fatalf("%s: seq %d kept = %v (%d bytes), want %v", when, seg.Seq, ok, len(p), kept(seg.Seq))
		}
	}
	check := func(what string, chain []stablelog.SegmentInfo) {
		t.Helper()
		*reads = 0
		bodies, err := l.ReadRun(chain)
		if err != nil {
			t.Fatalf("%s: %s: ReadRun: %v", when, what, err)
		}
		if want := chainReads(chain, kept); *reads != want {
			t.Errorf("%s: %s: ReadRun of %d segments issued %d reads, want %d", when, what, len(chain), *reads, want)
		}
		for i, seg := range chain {
			if ref == nil {
				break
			}
			file, err := ref.Read(seg.Seq)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bodies[i], file) {
				t.Fatalf("%s: %s: body of seq %d = %x, the file holds %x", when, what, seg.Seq, bodies[i], file)
			}
		}
	}
	for _, seg := range segs {
		chain := refChain(segs, seg.Epoch)
		if len(chain) == 0 || chain[0].Mode != ckpt.Full {
			continue
		}
		what := fmt.Sprintf("epoch %d/%d", seg.Epoch>>32, uint32(seg.Epoch))
		check(what, chain)
		*reads = 0
		if got := rewindValues(t, l, reg, seg.Epoch); !slices.Equal(got, want[seg.Epoch]) {
			t.Errorf("%s: RewindTo(%s) = %v, live state was %v", when, what, got, want[seg.Epoch])
		}
		if want := chainReads(chain, kept); *reads != want {
			t.Errorf("%s: RewindTo(%s) issued %d reads, want %d", when, what, *reads, want)
		}
	}
	for _, id := range l.StreamIDs() {
		run, err := l.StreamRun(id)
		if errors.Is(err, stablelog.ErrNoFull) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("StreamRun(%d)", id), run)
	}
}

func TestOpenKeepsSharedPayloads(t *testing.T) {
	m, reads := faultfs.NewMem(), new(int)
	lg, reg, want := sharedHistory(t, m, 10)
	defer lg.Close()
	keptNone := func(uint64) bool { return false }
	// Stream 1 owns seqs 1..3; stream 2's first segment is seq 4.
	keptFrom4 := func(seq uint64) bool { return seq >= 4 }

	// reopen opens a copy of the log written so far, reads counted.
	reopen := func(t *testing.T, budget int) *stablelog.Log {
		t.Helper()
		fs := countFS{faultfs.NewMemFromState(m.Snapshot()), reads}
		l, err := stablelog.OpenBudget("s.log", budget, stablelog.WithFS(fs))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	}

	fl, err := stablelog.Open("s.log", stablelog.WithFS(countFS{m, reads}))
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	checkChains(t, "after Open", fl, lg, reads, keptFrom4, reg, want)

	// The first write drops the kept payloads: every old chain is read from
	// the file again. (The appended segment, a stream with no Full, is in no
	// chain.)
	t.Run("after Append", func(t *testing.T) {
		fl := reopen(t, stablelog.KeepBudget)
		if _, err := fl.Append(ckpt.Incremental, 4<<32|1, nil); err != nil {
			t.Fatal(err)
		}
		checkChains(t, "after Append", fl, lg, reads, keptNone, reg, want)
	})

	t.Run("after Retain", func(t *testing.T) {
		fl := reopen(t, stablelog.KeepBudget)
		if _, ok := fl.Kept(4); !ok {
			t.Fatal("Open kept nothing; the test wants Retain to drop it")
		}
		if err := fl.Retain(stablelog.Binomial{Window: 3}); err != nil {
			t.Fatal(err)
		}
		if n, was := len(fl.Segments()), len(lg.Segments()); n >= was {
			t.Fatalf("Retain kept %d of %d segments; the test wants some dropped", n, was)
		}
		checkChains(t, "after Retain", fl, nil, reads, keptNone, reg, want)
	})

	t.Run("budget", func(t *testing.T) {
		size := int64(len(m.Snapshot()["s.log"]))
		left := int(size - lg.Segments()[3].Offset)
		for _, budget := range []int{0, left - 1, left, stablelog.KeepBudget} {
			bl := reopen(t, budget)
			kept := keptNone
			if budget >= left {
				kept = keptFrom4
			}
			checkChains(t, fmt.Sprintf("budget %d of %d bytes left", budget, left), bl, lg, reads, kept, reg, want)
			bl.Close()
			if _, ok := bl.Kept(4); ok {
				t.Errorf("budget %d: Close left seq 4 kept", budget)
			}
		}
	})

	t.Run("single stream", func(t *testing.T) {
		m, reads := faultfs.NewMem(), new(int)
		sl, reg, want := cellHistory(t, "one.log", 12, 4, stablelog.WithFS(m))
		defer sl.Close()
		ol, err := stablelog.Open("one.log", stablelog.WithFS(countFS{m, reads}))
		if err != nil {
			t.Fatal(err)
		}
		defer ol.Close()
		checkChains(t, "single stream", ol, sl, reads, keptNone, reg, want)
	})
}
