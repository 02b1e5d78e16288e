package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// appendDelta is AppendDeltaHashed for a base whose hash nobody has cached.
func appendDelta(e *Encoder, base, next []byte, limit int) bool {
	return AppendDeltaHashed(e, base, DeltaBaseHash(base), next, limit)
}

// refMatchLen is the encoder's original copy-run scan — one word per
// iteration from the first byte to the last, no blocks — kept as the oracle
// the block-skipping scan must agree with.
func refMatchLen(a, b []byte, i int) int {
	n := len(a)
	j := i
	for n-j >= 8 {
		x := binary.LittleEndian.Uint64(a[j:])
		y := binary.LittleEndian.Uint64(b[j:])
		if x != y {
			return j - i + bits.TrailingZeros64(x^y)/8
		}
		j += 8
	}
	for j < n && a[j] == b[j] {
		j++
	}
	return j - i
}

// refAppendDelta is the reference encoder: AppendDeltaHashed's contract with
// copy runs measured by refMatchLen and literal runs scanned a byte at a time
// (the scalar loop the shipped word-wise scan claims to equal). Same bytes,
// same win/lose, for every input.
func refAppendDelta(e *Encoder, base []byte, baseHash uint32, next []byte, limit int) bool {
	n := len(next)
	if len(base) != n {
		return false
	}
	start := e.Len()
	e.Uvarint(uint64(n))
	e.uint32(baseHash)
	for i := 0; i < n; {
		c := refMatchLen(base, next, i)
		e.Uvarint(uint64(c))
		i += c
		if i == n {
			break
		}
		lit := i + 1
		for lit < n {
			if next[lit] != base[lit] {
				lit++
				if lit-i > limit {
					e.Truncate(start)
					return false
				}
				continue
			}
			m := refMatchLen(base, next, lit)
			if m >= minCopyRun || lit+m == n {
				break
			}
			lit += m
		}
		if e.Len()-start+uvarintLen(uint64(lit-i))+lit-i > limit {
			e.Truncate(start)
			return false
		}
		e.Uvarint(uint64(lit - i))
		e.Raw(next[i:lit])
		i = lit
	}
	if e.Len()-start > limit {
		e.Truncate(start)
		return false
	}
	return true
}

// mutate returns a copy of base with frac of its bytes changed, in runs of
// up to 16, deterministically from seed.
func mutate(base []byte, frac float64, seed int64) []byte {
	next := append([]byte(nil), base...)
	rng := rand.New(rand.NewSource(seed))
	want := int(float64(len(base)) * frac)
	for changed := 0; changed < want; {
		i := rng.Intn(len(next))
		run := 1 + rng.Intn(16)
		for j := 0; j < run && i+j < len(next) && changed < want; j++ {
			next[i+j] ^= byte(1 + rng.Intn(255))
			changed++
		}
	}
	return next
}

func TestDeltaRoundTrip(t *testing.T) {
	for _, size := range []int{0, 1, 7, 8, 64, 256, 4096} {
		base := make([]byte, size)
		rng := rand.New(rand.NewSource(int64(size)))
		rng.Read(base)
		for _, frac := range []float64{0, 0.01, 0.1, 0.5} {
			next := base
			if frac > 0 {
				next = mutate(base, frac, int64(size)+7)
			}
			var e Encoder
			if !appendDelta(&e, base, next, len(next)) {
				if size >= 64 && frac <= 0.1 {
					t.Errorf("size %d frac %g: delta did not fit in full payload size", size, frac)
				}
				continue
			}
			got, err := ApplyDelta(base, e.Bytes())
			if err != nil {
				t.Fatalf("size %d frac %g: apply: %v", size, frac, err)
			}
			if !bytes.Equal(got, next) {
				t.Fatalf("size %d frac %g: apply mismatch", size, frac)
			}
			// In-place apply over the base must produce the same bytes.
			inPlace := append([]byte(nil), base...)
			if _, err := ValidateDelta(e.Bytes(), len(inPlace), DeltaBaseHash(inPlace)); err != nil {
				t.Fatalf("validate: %v", err)
			}
			if size > 0 {
				ApplyValidatedDelta(inPlace, inPlace, e.Bytes())
				if !bytes.Equal(inPlace, next) {
					t.Fatalf("size %d frac %g: in-place apply mismatch", size, frac)
				}
			}
		}
	}
}

func TestDeltaLimitAborts(t *testing.T) {
	base := make([]byte, 1024)
	rand.New(rand.NewSource(1)).Read(base)
	next := mutate(base, 1.0, 2)
	var e Encoder
	e.Uvarint(42) // pre-existing content the abort must preserve
	before := append([]byte(nil), e.Bytes()...)
	if appendDelta(&e, base, next, len(next)*3/4) {
		t.Fatal("fully-churned payload produced a delta under 3/4 of its size")
	}
	if !bytes.Equal(e.Bytes(), before) {
		t.Fatal("aborted AppendDeltaHashed left bytes behind")
	}
}

func TestDeltaSmallChangeIsSmall(t *testing.T) {
	base := make([]byte, 4096)
	rand.New(rand.NewSource(3)).Read(base)
	next := append([]byte(nil), base...)
	next[100] ^= 0xff
	next[3000] ^= 0x01
	var e Encoder
	if !appendDelta(&e, base, next, len(next)*3/4) {
		t.Fatal("two-byte change did not delta")
	}
	if e.Len() > 64 {
		t.Fatalf("two-byte change encoded to %d bytes", e.Len())
	}
}

func TestDeltaLengthMismatch(t *testing.T) {
	base := []byte("0123456789abcdef")
	var e Encoder
	if appendDelta(&e, base, base[:8], len(base)) {
		t.Fatal("length-changing delta was encoded")
	}
	if !appendDelta(&e, base, base, len(base)) {
		t.Fatal("identity delta did not encode")
	}
	if _, err := ApplyDelta(base[:8], e.Bytes()); !errors.Is(err, ErrBaseMismatch) {
		t.Fatalf("apply onto short base: got %v, want ErrBaseMismatch", err)
	}
	wrong := append([]byte(nil), base...)
	wrong[0] ^= 0xff
	if _, err := ApplyDelta(wrong, e.Bytes()); !errors.Is(err, ErrBaseMismatch) {
		t.Fatalf("apply onto altered base: got %v, want ErrBaseMismatch", err)
	}
}

func TestValidateDeltaRejectsGarbage(t *testing.T) {
	base := make([]byte, 64)
	next := mutate(base, 0.2, 4)
	var e Encoder
	if !appendDelta(&e, base, next, len(next)) {
		t.Fatal("encode")
	}
	good := e.Bytes()
	if _, err := ValidateDelta(good[:len(good)-1], len(base), DeltaBaseHash(base)); err == nil {
		t.Fatal("truncated delta validated")
	}
	bad := append([]byte(nil), good...)
	bad = append(bad, 0x01) // trailing garbage op
	if _, err := ValidateDelta(bad, len(base), DeltaBaseHash(base)); err == nil {
		t.Fatal("delta with trailing bytes validated")
	}
	if _, err := ValidateDelta(nil, len(base), DeltaBaseHash(base)); err == nil {
		t.Fatal("empty delta validated")
	}
}

// TestCopyRunsMatchReference walks a mismatch across every position around
// the copy-run scan's word, sub-block and block boundaries, with the run
// starting at every offset near them: matchLong must measure what the word
// loop measures, and the encoder — whose copy runs go words first, then
// matchLong — must emit the reference encoder's bytes.
func TestCopyRunsMatchReference(t *testing.T) {
	const n = matchWords + 2*matchBlock + matchSubBlock + 13
	base := make([]byte, n)
	rand.New(rand.NewSource(11)).Read(base)
	var edges []int
	for _, at := range []int{0, 8, matchSubBlock, matchWords, matchWords + matchSubBlock, matchBlock,
		matchWords + matchBlock, matchWords + matchBlock + matchSubBlock, matchWords + 2*matchBlock, n} {
		for _, d := range []int{-9, -8, -7, -1, 0, 1, 7, 8, 9} {
			if p := at + d; p >= 0 && p <= n {
				edges = append(edges, p)
			}
		}
	}
	var e, ref Encoder
	for _, size := range []int{n, n - 5, matchWords + matchBlock, matchBlock + 1, matchBlock - 1} {
		a := base[:size]
		hash := DeltaBaseHash(a)
		for _, diff := range edges {
			b := bytes.Clone(a)
			if diff < size {
				b[diff] ^= 0x40 // diff >= size: no second mismatch
			}
			for _, from := range edges {
				if from > size {
					continue
				}
				if got, want := matchLong(a, b, from), refMatchLen(a, b, from); got != want {
					t.Fatalf("size %d, mismatch at %d: matchLong from %d = %d, reference %d", size, diff, from, got, want)
				}
				if from == 0 || from-1 == diff {
					continue
				}
				// A literal byte just before from starts a copy run at from.
				b[from-1] ^= 0x01
				for _, limit := range []int{size, 16} {
					e.Reset()
					ref.Reset()
					win, refWin := AppendDeltaHashed(&e, a, hash, b, limit), refAppendDelta(&ref, a, hash, b, limit)
					if win != refWin || !bytes.Equal(e.Bytes(), ref.Bytes()) {
						t.Fatalf("size %d, edits at %d and %d, limit %d: encoder win=%v %x, reference win=%v %x",
							size, from-1, diff, limit, win, e.Bytes(), refWin, ref.Bytes())
					}
				}
				b[from-1] ^= 0x01
			}
		}
	}
}

// TestDeltaBaseHash4MatchesOneLane: every lane of the interleaved fingerprint
// equals DeltaBaseHash of its buffer, whatever the other lanes' lengths.
func TestDeltaBaseHash4MatchesOneLane(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	lens := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 17, 16<<10 - 3, 16 << 10, 16<<10 + 3}
	bufs := make([][]byte, len(lens))
	want := make([]uint32, len(lens))
	for i, n := range lens {
		bufs[i] = make([]byte, n)
		rng.Read(bufs[i])
		want[i] = DeltaBaseHash(bufs[i])
	}
	bufs[0] = nil // an unused lane
	for trial := 0; trial < 2000; trial++ {
		var k [4]int
		for i := range k {
			k[i] = rng.Intn(len(lens))
		}
		h0, h1, h2, h3 := DeltaBaseHash4(bufs[k[0]], bufs[k[1]], bufs[k[2]], bufs[k[3]])
		for lane, got := range [4]uint32{h0, h1, h2, h3} {
			if got != want[k[lane]] {
				t.Fatalf("lengths %d/%d/%d/%d: lane %d = %#x, DeltaBaseHash = %#x",
					lens[k[0]], lens[k[1]], lens[k[2]], lens[k[3]], lane, got, want[k[lane]])
			}
		}
	}
}

// FuzzDeltaBaseHash4 cuts one input into four lanes at arbitrary points.
func FuzzDeltaBaseHash4(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint16(0), uint16(0))
	f.Add([]byte("0123456789abcdef0123456789abcdef!"), uint16(8), uint16(9), uint16(25))
	f.Add(bytes.Repeat([]byte{0x5a, 0xa5, 0x01}, 700), uint16(7), uint16(1031), uint16(1032))
	f.Fuzz(func(t *testing.T, data []byte, c1, c2, c3 uint16) {
		cut := func(c uint16) int { return int(c) % (len(data) + 1) }
		cuts := []int{cut(c1), cut(c2), cut(c3)}
		slices.Sort(cuts)
		a, b, c, d := data[:cuts[0]], data[cuts[0]:cuts[1]], data[cuts[1]:cuts[2]], data[cuts[2]:]
		ha, hb, hc, hd := DeltaBaseHash4(a, b, c, d)
		if ha != DeltaBaseHash(a) || hb != DeltaBaseHash(b) || hc != DeltaBaseHash(c) || hd != DeltaBaseHash(d) {
			t.Fatalf("lanes of %d/%d/%d/%d bytes: got %#x %#x %#x %#x, want %#x %#x %#x %#x",
				len(a), len(b), len(c), len(d), ha, hb, hc, hd,
				DeltaBaseHash(a), DeltaBaseHash(b), DeltaBaseHash(c), DeltaBaseHash(d))
		}
	})
}

// FuzzDeltaRoundTrip: for random base/next pairs of equal length and any
// limit, the shipped encoder produces exactly the reference encoder's bytes
// and verdict; a delta that fits, applied, reproduces next exactly — out of
// place and in place over the base itself — and applying onto a base of the
// wrong length errors cleanly instead of corrupting or panicking.
func FuzzDeltaRoundTrip(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(0), uint16(0))
	f.Add([]byte("hello world, hello world"), []byte("helloворлд, hello world"), uint8(1), uint16(40))
	f.Add(bytes.Repeat([]byte{0xaa}, 512), bytes.Repeat([]byte{0xaa}, 512), uint8(9), uint16(528))
	seed := make([]byte, 256)
	rand.New(rand.NewSource(5)).Read(seed)
	f.Add(seed, mutate(seed, 0.05, 6), uint8(3), uint16(272))
	// matchLen's boundaries: lengths 0–7 and around a block, equal stretches
	// that end just before, on and just after a word, sub-block and block edge
	// (counted from the start and from the end of the word-first stretch), a
	// mismatch in the last byte of a block, and full churn running into the
	// limit in the middle of a block.
	big := make([]byte, matchWords+2*matchBlock+matchSubBlock+5)
	rand.New(rand.NewSource(7)).Read(big)
	for n := 0; n <= 7; n++ {
		f.Add(big[:n], big[1:1+n], uint8(n), uint16(23))
	}
	for _, n := range []int{matchBlock - 1, matchBlock, matchBlock + 1, len(big)} {
		base := big[:n]
		f.Add(base, base, uint8(2), uint16(n))
		for _, at := range []int{7, 8, 9, matchSubBlock - 1, matchSubBlock, matchWords - 1, matchWords,
			matchWords + matchSubBlock - 1, matchBlock - 1, matchBlock, matchWords + matchBlock - 1,
			matchWords + matchBlock, matchWords + matchBlock + matchSubBlock, n - 1} {
			if at >= n {
				continue
			}
			next := bytes.Clone(base)
			next[at] ^= 0xff
			f.Add(base, next, uint8(at), uint16(n))
			next[0] ^= 0xff // the long match starts after a literal run
			f.Add(base, next, uint8(at), uint16(n*3/4))
		}
		f.Add(base, mutate(base, 1.0, 8), uint8(0), uint16(n*3/4))
	}
	f.Fuzz(func(t *testing.T, base, next []byte, chop uint8, limit uint16) {
		if len(next) > len(base) {
			next = next[:len(base)]
		} else {
			next = append(next, base[len(next):]...)
		}
		lim := int(limit) % (len(next) + 17)
		hash := DeltaBaseHash(base)
		var e, ref Encoder
		e.Uvarint(42) // pre-existing content a lost encode must leave alone
		ref.Uvarint(42)
		win := AppendDeltaHashed(&e, base, hash, next, lim)
		if refWin := refAppendDelta(&ref, base, hash, next, lim); win != refWin || !bytes.Equal(e.Bytes(), ref.Bytes()) {
			t.Fatalf("%d-byte payload, limit %d: encoder win=%v %x, reference win=%v %x",
				len(next), lim, win, e.Bytes(), refWin, ref.Bytes())
		}
		if !win {
			return // over limit: encoder fell back, nothing more to check
		}
		delta := e.Bytes()[1:]
		got, err := ApplyDelta(base, delta)
		if err != nil {
			t.Fatalf("apply: %v", err)
		}
		if !bytes.Equal(got, next) {
			t.Fatalf("round trip mismatch: %x -> %x, got %x", base, next, got)
		}
		// The rebuilder materializes a same-size delta over its own copy of the
		// base, in place: that must land on next too, exactly as out of place.
		inPlace := bytes.Clone(base)
		ApplyValidatedDelta(inPlace, inPlace, delta)
		if !bytes.Equal(inPlace, next) {
			t.Fatalf("in-place apply mismatch: %x -> %x, got %x", base, next, inPlace)
		}
		// Wrong-length bases must fail validation, never misapply.
		short := base[:len(base)-int(chop)%(len(base)+1)]
		if len(short) != len(base) {
			if _, err := ApplyDelta(short, delta); !errors.Is(err, ErrBaseMismatch) {
				t.Fatalf("apply onto %d-byte base of %d-byte delta: %v", len(short), len(base), err)
			}
		}
	})
}
