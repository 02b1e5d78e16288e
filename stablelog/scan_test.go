package stablelog_test

// The Open scan is one forward pass through a sliding window. These tests
// hold it to the per-segment algorithm it replaced (kept below as refScan):
// same segments, same error class, same truncation offset — at every window
// alignment, under injected read faults, and under fuzz — and pin the bound
// on what a hostile length field can make it allocate.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"slices"
	"syscall"
	"testing"
	"unsafe"

	"ickpt/ckpt"
	"ickpt/internal/faultfs"
	"ickpt/stablelog"
)

const (
	imgMagic   = "ICKPTLG1"
	imgSegMark = 0x5345474d
	imgHdrSize = 29
)

// appendSegment frames body as segment seq at the end of img.
func appendSegment(img []byte, seq uint64, mode ckpt.Mode, body []byte) []byte {
	return appendStreamSegment(img, seq, 0, mode, body)
}

// appendStreamSegment frames body as segment seq of stream id, at epoch
// id<<32 | seq, at the end of img.
func appendStreamSegment(img []byte, seq uint64, id uint32, mode ckpt.Mode, body []byte) []byte {
	img = binary.LittleEndian.AppendUint32(img, imgSegMark)
	img = binary.LittleEndian.AppendUint64(img, seq)
	img = binary.LittleEndian.AppendUint64(img, uint64(id)<<32|seq)
	img = append(img, byte(mode))
	img = binary.LittleEndian.AppendUint32(img, uint32(len(body)))
	img = binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(body))
	return append(img, body...)
}

// logImage is a valid log whose segments have the given payload lengths.
func logImage(lens ...int) []byte {
	img := []byte(imgMagic)
	for i, n := range lens {
		mode := ckpt.Incremental
		if i == 0 {
			mode = ckpt.Full
		}
		body := bytes.Repeat([]byte{byte('a' + i)}, n)
		img = appendSegment(img, uint64(i+1), mode, body)
	}
	return img
}

// sharedImage is a valid log several streams share: its first alone
// segments are stream 0's, segment i after them stream i%3's; payloads have
// the given lengths.
func sharedImage(alone int, lens ...int) []byte {
	img := []byte(imgMagic)
	for i, n := range lens {
		mode, id := ckpt.Incremental, uint32(i%3)
		if i == 0 {
			mode = ckpt.Full
		}
		if i < alone {
			id = 0
		}
		body := bytes.Repeat([]byte{byte('a' + i)}, n)
		img = appendStreamSegment(img, uint64(i+1), id, mode, body)
	}
	return img
}

// hostileHeader is a well-formed header for segment seq that claims a
// payload the file cannot back.
func hostileHeader(img []byte, seq uint64) []byte {
	img = appendSegment(img, seq, ckpt.Incremental, nil)
	binary.LittleEndian.PutUint32(img[len(img)-8:], 0xFFFFFFF0)
	return img
}

// refScan is the algorithm Open ran before the windowed scan — one header,
// then one payload, per segment — over an in-memory image, so a length
// field costs it nothing. It returns the segments a successful Open
// indexes, whether Open fails with ErrCorrupt, and the file's length after.
func refScan(img []byte, truncateTorn bool) (segs []stablelog.SegmentInfo, corrupt bool, size int) {
	if len(img) < len(imgMagic) || string(img[:len(imgMagic)]) != imgMagic {
		return nil, true, len(img)
	}
	off := len(imgMagic)
	for off < len(img) {
		hdr := img[off:min(off+imgHdrSize, len(img))]
		ok := len(hdr) == imgHdrSize && binary.LittleEndian.Uint32(hdr) == imgSegMark
		var seg stablelog.SegmentInfo
		if ok {
			seg = stablelog.SegmentInfo{
				Seq:    binary.LittleEndian.Uint64(hdr[4:]),
				Epoch:  binary.LittleEndian.Uint64(hdr[12:]),
				Mode:   ckpt.Mode(hdr[20]),
				Offset: int64(off),
				Length: int(binary.LittleEndian.Uint32(hdr[21:])),
				CRC:    binary.LittleEndian.Uint32(hdr[25:]),
			}
			ok = (seg.Mode == ckpt.Full || seg.Mode == ckpt.Incremental) &&
				seg.Seq == uint64(len(segs)+1) &&
				seg.Length <= len(img)-off-imgHdrSize &&
				crc32.ChecksumIEEE(img[off+imgHdrSize:][:seg.Length]) == seg.CRC
		}
		if !ok {
			if truncateTorn {
				return segs, false, off
			}
			return nil, true, len(img)
		}
		segs = append(segs, seg)
		off += imgHdrSize + seg.Length
	}
	return segs, false, len(img)
}

// checkScan opens img with the given window and demands refScan's answer.
// With failNth > 0 the nth read fails with EIO: then either the fault was
// reached — ErrIO wrapping EIO, never ErrCorrupt, file untouched — or it was
// not, and the answer is the reference's.
func checkScan(t *testing.T, img []byte, window int, truncateTorn bool, failNth int) {
	t.Helper()
	m := faultfs.NewMemFromState(map[string][]byte{"s.log": img})
	opts := []stablelog.Option{stablelog.WithFS(m)}
	if truncateTorn {
		opts = append(opts, stablelog.WithTruncateTorn())
	}
	if failNth > 0 {
		m.FailRead(failNth, syscall.EIO)
	}
	l, err := stablelog.OpenWindow("s.log", window, opts...)
	after := len(m.Snapshot()["s.log"])
	if errors.Is(err, stablelog.ErrIO) {
		if failNth == 0 || !errors.Is(err, syscall.EIO) || errors.Is(err, stablelog.ErrCorrupt) {
			t.Fatalf("window %d: err = %v, want ErrIO only for the injected EIO", window, err)
		}
		if after != len(img) {
			t.Fatalf("window %d: file %d -> %d bytes on a transient error", window, len(img), after)
		}
		return
	}
	wantSegs, wantCorrupt, wantLen := refScan(img, truncateTorn)
	if after != wantLen {
		t.Fatalf("window %d truncate=%v: file length after Open = %d, want %d", window, truncateTorn, after, wantLen)
	}
	if wantCorrupt {
		if !errors.Is(err, stablelog.ErrCorrupt) {
			t.Fatalf("window %d truncate=%v: err = %v, want ErrCorrupt", window, truncateTorn, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("window %d truncate=%v: err = %v, want nil", window, truncateTorn, err)
	}
	defer l.Close()
	if got := l.Segments(); !slices.Equal(got, wantSegs) {
		t.Fatalf("window %d truncate=%v: segments\n got %v\nwant %v", window, truncateTorn, got, wantSegs)
	}
	// A shared log keeps every payload from its second stream's first
	// segment on, byte for byte the file's; a single-stream log keeps none.
	shared := false
	for i, seg := range wantSegs {
		shared = shared || seg.Epoch>>32 != wantSegs[0].Epoch>>32
		got, kept := l.Kept(seg.Seq)
		if kept != shared {
			t.Fatalf("window %d truncate=%v: seq %d (stream %d) kept = %v, want %v",
				window, truncateTorn, seg.Seq, seg.Epoch>>32, kept, shared)
		}
		if want := img[seg.Offset+imgHdrSize:][:seg.Length]; kept && !bytes.Equal(got, want) {
			t.Fatalf("window %d truncate=%v: segment %d kept %x, the file holds %x", window, truncateTorn, i, got, want)
		}
	}
	if failNth > 0 {
		return
	}
	// The append position is where the scan ended: one more segment lands
	// right behind the last one a plain Open accepts.
	if _, err := l.Append(ckpt.Incremental, 1<<40, []byte("next")); err != nil {
		t.Fatal(err)
	}
	for _, seg := range l.Segments() {
		if _, kept := l.Kept(seg.Seq); kept {
			t.Fatalf("window %d truncate=%v: seq %d still kept after an Append", window, truncateTorn, seg.Seq)
		}
	}
	lg, err := stablelog.Open("s.log", stablelog.WithFS(m))
	if err != nil {
		t.Fatalf("window %d truncate=%v: reopen after append: %v", window, truncateTorn, err)
	}
	defer lg.Close()
	if n := len(lg.Segments()); n != len(wantSegs)+1 {
		t.Fatalf("window %d truncate=%v: %d segments after append, want %d", window, truncateTorn, n, len(wantSegs)+1)
	}
}

// scanCases are file images built around a 64-byte window: the first window
// covers file bytes [8, 72).
func scanCases() map[string][]byte {
	const w = 64
	flip := func(img []byte, at int) []byte {
		img = slices.Clone(img)
		if at < 0 {
			at += len(img)
		}
		img[at] ^= 0x40
		return img
	}
	three := logImage(10, 200, 7)
	shared, two := sharedImage(1, 10, 200, 7, 30, 0, 64), sharedImage(1, 10, 50)
	return map[string][]byte{
		"empty log":                       logImage(),
		"short file magic":                []byte(imgMagic[:5]),
		"bad file magic":                  flip(logImage(3), 2),
		"header straddles window edge":    logImage(w-imgHdrSize-10, 5),
		"payload ends at window edge":     logImage(w-imgHdrSize, 5),
		"empty payload ends the window":   logImage(w-2*imgHdrSize, 0, 5),
		"empty payload ends the file":     logImage(4, 0),
		"payload larger than the window":  logImage(3, 3*w+5, 4),
		"torn header in the last window":  three[:len(three)-7-imgHdrSize+11],
		"torn payload in the last window": three[:len(three)-3],
		"bad CRC in the last window":      flip(three, -1),
		"bad CRC mid-file":                flip(three, len(imgMagic)+imgHdrSize+10+imgHdrSize+100),
		"bad segment magic mid-file":      flip(three, len(imgMagic)+imgHdrSize+10),
		"bad mode":                        flip(three, len(imgMagic)+imgHdrSize+10+20),
		"sequence gap":                    appendSegment(logImage(4), 3, ckpt.Incremental, []byte("x")),
		"length the file cannot back":     hostileHeader(logImage(9), 2),
		"garbage after a hostile length":  append(hostileHeader(logImage(9), 2), bytes.Repeat([]byte{0xEE}, 3*w)...),

		"shared log":                              shared,
		"shared log, stream 0 first twice":        sharedImage(2, 10, 20, 30, 5, 0, 7),
		"second stream at a window edge":          sharedImage(1, w-imgHdrSize, 5, 9),
		"second stream straddles a window edge":   sharedImage(1, w-imgHdrSize-10, 5, 9),
		"shared payload larger than the window":   sharedImage(2, 3, 4, 3*w+5, 4),
		"torn first payload of the second stream": two[:len(two)-3],
		"torn payload after keeping began":        shared[:len(shared)-3],
		"bad CRC after keeping began":             flip(shared, -1),
		"bad CRC in the second stream's first":    flip(shared, len(imgMagic)+imgHdrSize+10+imgHdrSize+100),
		"hostile length on a shared log":          hostileHeader(sharedImage(1, 9, 4), 3),
	}
}

// TestOpenScanMatchesReference runs every case at every window alignment
// from one header up, at the production window, and with a read fault at
// every position the scan reaches.
func TestOpenScanMatchesReference(t *testing.T) {
	for name, img := range scanCases() {
		t.Run(name, func(t *testing.T) {
			windows := []int{stablelog.ScanWindowSize}
			for w := imgHdrSize; w <= 3*64; w++ {
				windows = append(windows, w)
			}
			for _, w := range windows {
				for _, truncateTorn := range []bool{false, true} {
					checkScan(t, img, w, truncateTorn, 0)
				}
			}
			for failNth := 1; failNth <= 12; failNth++ {
				checkScan(t, img, 64, true, failNth)
				checkScan(t, img, 64, false, failNth)
			}
		})
	}
}

// FuzzOpenScan: any file image, any window, with or without a read fault,
// gets the reference's segments, error class and post-Open file length.
func FuzzOpenScan(f *testing.F) {
	for _, img := range scanCases() {
		f.Add(img, uint16(64-imgHdrSize), true, uint8(0))
		f.Add(img, uint16(0), false, uint8(2))
	}
	f.Fuzz(func(t *testing.T, img []byte, window uint16, truncateTorn bool, failNth uint8) {
		if len(img) > 1<<16 {
			t.Skip()
		}
		checkScan(t, img, imgHdrSize+int(window)%512, truncateTorn, int(failNth))
	})
}

// TestOpenHostileLengthAllocatesNothing: a header whose length field the
// file cannot back is a short payload — ErrCorrupt, truncated away under
// WithTruncateTorn — and costs no more memory than the window. The old scan
// allocated the claimed 4 GiB before reading a byte.
func TestOpenHostileLengthAllocatesNothing(t *testing.T) {
	valid := logImage(9)
	for name, tail := range map[string][]byte{
		"bare header":             nil,
		"a window of garbage too": bytes.Repeat([]byte{0xEE}, stablelog.ScanWindowSize),
	} {
		t.Run(name, func(t *testing.T) {
			img := append(hostileHeader(slices.Clone(valid), 2), tail...)
			m := faultfs.NewMemFromState(map[string][]byte{"h.log": img})

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := stablelog.Open("h.log", stablelog.WithFS(m))
			runtime.ReadMemStats(&after)
			if !errors.Is(err, stablelog.ErrCorrupt) {
				t.Fatalf("plain Open = %v, want ErrCorrupt", err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
				t.Errorf("plain Open allocated %d bytes", grew)
			}

			runtime.ReadMemStats(&before)
			l, err := stablelog.Open("h.log", stablelog.WithFS(m), stablelog.WithTruncateTorn())
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("Open(WithTruncateTorn) = %v", err)
			}
			defer l.Close()
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
				t.Errorf("Open(WithTruncateTorn) allocated %d bytes", grew)
			}
			if n := len(l.Segments()); n != 1 {
				t.Errorf("segments = %d, want the 1 valid one", n)
			}
			if size := len(m.Snapshot()["h.log"]); size != len(valid) {
				t.Errorf("file is %d bytes after truncation, want %d", size, len(valid))
			}
		})
	}

	// A shared log keeps its payloads from the second stream on, in a buffer
	// sized by the file's bytes left, not by any length field: behind a
	// window of garbage too, Open still stays under the bound, and keeps the
	// valid segments' payloads only.
	t.Run("shared log", func(t *testing.T) {
		valid := sharedImage(1, 9, 4)
		img := append(hostileHeader(slices.Clone(valid), 3), bytes.Repeat([]byte{0xEE}, stablelog.ScanWindowSize)...)
		m := faultfs.NewMemFromState(map[string][]byte{"h.log": img})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l, err := stablelog.Open("h.log", stablelog.WithFS(m), stablelog.WithTruncateTorn())
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("Open(WithTruncateTorn) = %v", err)
		}
		defer l.Close()
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
			t.Errorf("Open(WithTruncateTorn) allocated %d bytes", grew)
		}
		if n := len(l.Segments()); n != 2 {
			t.Fatalf("segments = %d, want the 2 valid ones", n)
		}
		if p, ok := l.Kept(2); !ok || !bytes.Equal(p, bytes.Repeat([]byte{'b'}, 4)) {
			t.Errorf("kept payload of seq 2 = %q, %v; want the file's", p, ok)
		}
		if _, ok := l.Kept(3); ok {
			t.Error("the torn segment's payload is kept")
		}
	})
}

// TestOpenAllocatesWhatItKeeps: an Open of a shared log allocates its
// window, the payloads it keeps and its segment table, and next to nothing
// else. The table grows at least twofold each time it is full, so in all it
// allocates at most twice its final size; grown by append's 1.25× steps, it
// allocated about five times its final size.
func TestOpenAllocatesWhatItKeeps(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const streams, rounds = 64, 300
	img := []byte(imgMagic)
	seq := uint64(0)
	for round := range rounds {
		for id := range uint32(streams) {
			mode, n := ckpt.Incremental, 16+(int(id)*7+round*3)%24
			if round == 0 {
				mode, n = ckpt.Full, 96
			}
			seq++
			img = appendStreamSegment(img, seq, id, mode, bytes.Repeat([]byte{byte(seq)}, n))
		}
	}
	m := faultfs.NewMemFromState(map[string][]byte{"a.log": img})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l, err := stablelog.Open("a.log", stablelog.WithFS(m))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	segs := l.Segments()
	if len(segs) != int(seq) {
		t.Fatalf("Open indexed %d segments, want %d", len(segs), seq)
	}
	if _, ok := l.Kept(2); !ok {
		t.Fatal("Open kept nothing; the test wants a shared log's payloads kept")
	}
	window := min(stablelog.ScanWindowSize, len(img)-len(imgMagic))
	kept := len(img) - int(segs[1].Offset)
	table := 2 * len(segs) * int(unsafe.Sizeof(stablelog.SegmentInfo{}))
	const slack = 16 << 10
	grew := int(after.TotalAlloc - before.TotalAlloc)
	t.Logf("Open allocated %d bytes: window %d, kept %d, table bound %d, rest %d", grew, window, kept, table, grew-window-kept)
	if grew > window+kept+table+slack {
		t.Errorf("Open of %d segments allocated %d bytes, want at most %d: window %d + kept %d + twice the table %d + slack %d",
			len(segs), grew, window+kept+table+slack, window, kept, table, slack)
	}
}
