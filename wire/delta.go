// Delta records: the copy/patch opcode stream behind ckpt's sub-object
// delta encoding.
//
// A delta payload re-expresses an object's record payload as edits against
// the payload the same object carried in an earlier checkpoint (its base):
//
//	newLen   uvarint   // length of the materialized payload; equals the
//	                   // base length — deltas are aligned, never resizing
//	baseHash uint32    // DeltaBaseHash of the base, little-endian
//	ops                // alternating runs, starting with a copy:
//	                   //   copyLen uvarint                 (take from base)
//	                   //   litLen  uvarint, litLen bytes   (take from delta)
//	                   // until the cursor reaches newLen
//
// Copy runs reference the base at the same offset — runs never move, they
// only skip unchanged bytes — so applying a delta in place over its own base
// is safe: copy runs are the identity and literal runs overwrite. The
// aligned restriction (newLen == baseLen) is what buys that; a payload that
// changes length falls back to a full record at the encoder.
//
// The encoder only ends a literal run for a match of at least minCopyRun
// bytes, so op framing can never blow up the stream on noisy data; an explicit
// size limit aborts the encode — before copying literal bytes — as soon as the
// delta stops paying for itself. Literal runs are scanned a word at a time;
// copy runs are measured in words while a match is short and in whole blocks
// (bytes.Equal, the runtime's vectorised memequal) once it is long, so a
// payload that is mostly unchanged costs what a memequal over it costs rather
// than a compare per word (see matchLong).
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Record kinds used by checkpoint streams that carry deltas. KindFull marks
// a record whose payload is the object's complete state; KindDelta marks a
// payload in the delta format above.
const (
	KindFull  byte = 0
	KindDelta byte = 1
)

// ErrBaseMismatch reports a delta validated or applied against a base it was
// not encoded against: the lengths disagree, or the base bytes hash
// differently.
var ErrBaseMismatch = errors.New("wire: delta base mismatch")

// minCopyRun is the shortest match worth ending a literal run for: shorter
// matches cost more in op framing (two uvarints) than they save in bytes.
const minCopyRun = 8

// The constants of DeltaBaseHash: FNV-1a's 64-bit offset basis and prime.
const (
	hashOffset64 = 14695981039346656037
	hashPrime64  = 1099511628211
)

// hashStride is how many bytes of each lane one pass of DeltaBaseHash4's
// outer loop covers.
const hashStride = 64

// DeltaBaseHash fingerprints a delta base. It is an FNV-style multiply-xor
// over 64-bit words (byte-exact tail), folded to 32 bits — word-at-a-time
// because it runs once per shadowed payload per epoch, where byte-wise FNV
// would cost more than the encode itself. The chain is serial — every word
// waits for the previous multiply — so one call is bound by multiply latency,
// not by loads; a caller with several payloads to fingerprint runs their
// chains side by side with DeltaBaseHash4.
func DeltaBaseHash(b []byte) uint32 {
	return hashFold(hashChain(hashSeed(len(b)), b))
}

// DeltaBaseHash4 returns DeltaBaseHash of each of four buffers. The four
// chains are independent, so interleaving them in one loop keeps four
// multiplies in flight where a single chain keeps one: the lanes advance
// together over their common prefix and each finishes its own remainder
// alone, so the lengths may differ freely (an unused lane is a nil buffer).
func DeltaBaseHash4(a, b, c, d []byte) (ha, hb, hc, hd uint32) {
	h0, h1, h2, h3 := hashSeed(len(a)), hashSeed(len(b)), hashSeed(len(c)), hashSeed(len(d))
	n := min(len(a), len(b), len(c), len(d)) &^ (hashStride - 1)
	for i := 0; i < n; i += hashStride {
		// One bounds check per lane per stride; the words inside are indexed
		// by constants.
		pa, pb := (*[hashStride]byte)(a[i:]), (*[hashStride]byte)(b[i:])
		pc, pd := (*[hashStride]byte)(c[i:]), (*[hashStride]byte)(d[i:])
		for k := 0; k < hashStride; k += 8 {
			h0 = (h0 ^ binary.LittleEndian.Uint64(pa[k:])) * hashPrime64
			h1 = (h1 ^ binary.LittleEndian.Uint64(pb[k:])) * hashPrime64
			h2 = (h2 ^ binary.LittleEndian.Uint64(pc[k:])) * hashPrime64
			h3 = (h3 ^ binary.LittleEndian.Uint64(pd[k:])) * hashPrime64
		}
	}
	return hashFold(hashChain(h0, a[n:])), hashFold(hashChain(h1, b[n:])),
		hashFold(hashChain(h2, c[n:])), hashFold(hashChain(h3, d[n:]))
}

// hashSeed starts a chain for a buffer of n bytes.
func hashSeed(n int) uint64 { return hashOffset64 ^ uint64(n)*hashPrime64 }

// hashChain advances h over b: whole little-endian words, then the tail byte
// by byte.
func hashChain(h uint64, b []byte) uint64 {
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * hashPrime64
		b = b[8:]
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * hashPrime64
	}
	return h
}

// hashFold folds a finished chain to the 32 bits a delta embeds.
func hashFold(h uint64) uint32 { return uint32(h ^ h>>32) }

// A copy run is measured in two stages. Its first matchWords bytes are
// compared word by word, inline (matchLen) — scattered edits produce short
// matches, which must never pay a call. A match that outlives them is handed
// to matchLong, which lets bytes.Equal (the runtime's vectorised memequal) skip
// it matchBlock bytes at a time while blocks keep matching, then
// matchSubBlock bytes at a time to close in on the difference, and drops back
// to words only inside the one sub-block that differs. The values were picked
// on BenchmarkAppendDeltaShapes (table in EXPERIMENTS.md): blocks from the
// first byte made every short match pay two failed memequal calls — 64 KB
// with 10% scattered single-byte edits took twice as long — and a 64-byte
// word-first stretch still cost 4 KB at 1% a seventh more; from 128 bytes up
// no scattered shape is more than a few percent off the plain word loop.
const (
	matchWords    = 128
	matchBlock    = 512
	matchSubBlock = 64
)

// matchLen returns the length of the common prefix of a[i:] and b[i:],
// comparing 8 bytes at a time. It is small enough to inline.
func matchLen(a, b []byte, i int) int {
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

// matchLong returns what matchLen returns, at memequal speed over the blocks
// that match and at two failed block compares' cost when none does — so it is
// only worth calling on a match already known to be long.
func matchLong(a, b []byte, i int) int {
	n := len(a)
	j := i
	for n-j >= matchBlock && bytes.Equal(a[j:j+matchBlock], b[j:j+matchBlock]) {
		j += matchBlock
	}
	for n-j >= matchSubBlock && bytes.Equal(a[j:j+matchSubBlock], b[j:j+matchSubBlock]) {
		j += matchSubBlock
	}
	return j - i + matchLen(a, b, j)
}

// uvarintLen returns the encoded size of v.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// AppendDeltaHashed encodes next as a delta against base — whose
// DeltaBaseHash the caller supplies; shadow caches store it beside the payload
// so steady-state encoding never rehashes an unchanged base — and appends it
// to e, reporting success. It fails — leaving e untouched — when the lengths
// differ (deltas are aligned) or when the delta would exceed limit bytes:
// past that point shipping the full payload is cheaper than the opcode
// stream plus the apply cost. The scan aborts before copying literal bytes
// once the projected size crosses the limit, so a 100%-churned payload costs
// one comparison sweep, not a wasted encode.
func AppendDeltaHashed(e *Encoder, base []byte, baseHash uint32, next []byte, limit int) bool {
	n := len(next)
	if len(base) != n {
		return false
	}
	start := e.Len()
	e.Uvarint(uint64(n))
	e.uint32(baseHash)
	i := 0
	for i < n {
		// Copy run: words for the first matchWords bytes, blocks beyond.
		stop := min(n, i+matchWords)
		c := matchLen(base[:stop], next[:stop], i)
		if c == matchWords {
			c += matchLong(base, next, stop)
		}
		e.Uvarint(uint64(c))
		i += c
		if i == n {
			break
		}
		// Literal run: extend until a match of at least minCopyRun bytes
		// begins (or one that runs to the end of the payload, however
		// short — the tail costs one op either way).
		lit := i + 1
		for lit < n {
			if n-lit >= 8 {
				// Word-wise fast path. A differing byte at offset d within
				// the word breaks every candidate match starting at or
				// before it (minCopyRun == 8 == the word width), so the run
				// can jump past the word's last differing byte in one step;
				// a fully equal word is a match of at least minCopyRun
				// starting right here. Byte-for-byte identical output to
				// the scalar loop below, which only runs for the tail.
				x := binary.LittleEndian.Uint64(next[lit:])
				y := binary.LittleEndian.Uint64(base[lit:])
				if d := x ^ y; d != 0 {
					lit += 8 - bits.LeadingZeros64(d)/8
					if lit-i > limit {
						e.Truncate(start)
						return false
					}
					continue
				}
				break
			}
			if next[lit] != base[lit] {
				lit++
				if lit-i > limit {
					e.Truncate(start)
					return false
				}
				continue
			}
			m := matchLen(base, next, lit)
			if m >= minCopyRun || lit+m == n {
				break
			}
			lit += m
		}
		litLen := lit - i
		if e.Len()-start+uvarintLen(uint64(litLen))+litLen > limit {
			e.Truncate(start)
			return false
		}
		e.Uvarint(uint64(litLen))
		e.Raw(next[i:lit])
		i = lit
	}
	if e.Len()-start > limit {
		e.Truncate(start)
		return false
	}
	return true
}

// DeltaLen returns the materialized payload length a delta declares, without
// validating the op stream. Inspection tools use it to report raw vs encoded
// bytes on real logs.
func DeltaLen(delta []byte) (int, error) {
	v, n := binary.Uvarint(delta)
	if n <= 0 {
		return 0, fmt.Errorf("%w: delta length prefix", ErrMalformed)
	}
	return int(v), nil
}

// ValidateDelta checks delta structurally and against a base of the given
// length and hash: the declared length must equal baseLen (aligned deltas
// never resize), the embedded hash must match baseHash, every op must be
// in bounds, and the runs must sum to exactly the declared length. It
// returns the materialized payload length. After a nil error,
// ApplyValidatedDelta on a base of that length cannot fail.
func ValidateDelta(delta []byte, baseLen int, baseHash uint32) (int, error) {
	d := NewDecoder(delta)
	n := int(d.Uvarint())
	h := d.uint32()
	if err := d.Err(); err != nil {
		return 0, fmt.Errorf("delta header: %w", err)
	}
	if n != baseLen {
		return 0, fmt.Errorf("%w: delta for %d bytes, base has %d", ErrBaseMismatch, n, baseLen)
	}
	if h != baseHash {
		return 0, fmt.Errorf("%w: base hash %#08x, want %#08x", ErrBaseMismatch, baseHash, h)
	}
	i := 0
	for i < n {
		c := d.Uvarint()
		if d.Err() != nil || c > uint64(n-i) {
			return 0, fmt.Errorf("%w: delta copy run", ErrMalformed)
		}
		i += int(c)
		if i == n {
			break
		}
		l := d.Uvarint()
		if d.Err() != nil || l == 0 || l > uint64(n-i) {
			return 0, fmt.Errorf("%w: delta literal run", ErrMalformed)
		}
		d.skip(int(l))
		if d.Err() != nil {
			return 0, fmt.Errorf("%w: delta literal run", ErrTruncated)
		}
		i += int(l)
	}
	if d.Len() != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes after delta ops", ErrMalformed, d.Len())
	}
	return n, nil
}

// ApplyValidatedDelta materializes a delta that ValidateDelta has already
// accepted for this base length, writing the result into dst (which must
// have the validated length). dst may be base itself: copy runs are the
// identity in place and literal runs overwrite, so in-place materialization
// is safe and allocation-free.
func ApplyValidatedDelta(dst, base, delta []byte) {
	d := NewDecoder(delta)
	n := int(d.Uvarint())
	_ = d.uint32()
	i := 0
	for i < n {
		c := int(d.Uvarint())
		if &dst[0] != &base[0] {
			copy(dst[i:i+c], base[i:i+c])
		}
		i += c
		if i == n {
			break
		}
		l := int(d.Uvarint())
		copy(dst[i:i+l], d.Raw(l))
		i += l
	}
}

// ApplyDelta validates delta against base and returns the materialized
// payload in a fresh buffer. A delta encoded for a different base — wrong
// length or different bytes — fails with ErrBaseMismatch.
func ApplyDelta(base, delta []byte) ([]byte, error) {
	n, err := ValidateDelta(delta, len(base), DeltaBaseHash(base))
	if err != nil {
		return nil, err
	}
	dst := make([]byte, n)
	if n > 0 {
		ApplyValidatedDelta(dst, base, delta)
	}
	return dst, nil
}
