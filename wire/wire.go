// Package wire implements the binary encoding used by checkpoint streams.
//
// The format is deliberately simple and self-contained: unsigned and signed
// variable-length integers (LEB128 with zig-zag for signed values),
// fixed-width little-endian 32/64-bit words, IEEE-754 float64, booleans,
// and length-prefixed strings and byte slices. It plays the role that
// java.io.DataOutputStream over ByteArrayOutputStream plays in the original
// system: checkpoint payloads are built in memory and handed to stable
// storage as a single buffer.
//
// Encoder never fails: it appends to an in-memory buffer. Decoder uses a
// sticky error so call sites can decode a whole record and check the error
// once at the end.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
)

// Decoding errors. ErrTruncated reports input that ends in the middle of a
// value; ErrMalformed reports input that can never be valid (for example an
// overlong varint).
var (
	ErrTruncated = errors.New("wire: truncated input")
	ErrMalformed = errors.New("wire: malformed input")
)

// Encoder appends binary values to an in-memory buffer.
//
// The zero value is an empty encoder ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with the given initial capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded buffer. The returned slice aliases the encoder's
// internal storage and is invalidated by further writes or Reset.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards the buffer contents, retaining capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Grow ensures the buffer has capacity for at least n more bytes without
// reallocating, so a caller that knows a body's size up front pays one
// allocation instead of a doubling cascade.
func (e *Encoder) Grow(n int) {
	e.buf = slices.Grow(e.buf, n)
}

// Truncate discards everything encoded after offset n, retaining capacity.
// It is the undo behind speculative encodes: AppendDeltaHashed restores the
// encoder to its starting length when a delta stops paying for itself.
func (e *Encoder) Truncate(n int) {
	e.buf = e.buf[:n]
}

// PatchByte overwrites the byte at pos, previously appended by Byte. It is
// the single-byte analogue of PatchUvarint: the delta-aware record framing
// reserves a kind byte before the payload is encoded in place and patches it
// to KindDelta only if the speculative delta encode wins.
func (e *Encoder) PatchByte(pos int, v byte) {
	e.buf[pos] = v
}

// encoderPool recycles Encoders — and, through them, their grown buffers —
// across short-lived users: parallel fold workers, one-shot writers. Pooling
// the *Encoder rather than the byte slice keeps Put allocation-free (a slice
// stored in a sync.Pool boxes its header on every Put).
var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// GetEncoder returns an empty pooled encoder. Pair with PutEncoder when the
// encoder's buffer is no longer referenced.
func GetEncoder() *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.Reset()
	return e
}

// PutEncoder returns e to the pool. The caller must no longer hold slices
// returned by Bytes: the next GetEncoder hands the buffer to someone else.
func PutEncoder(e *Encoder) {
	if e != nil {
		encoderPool.Put(e)
	}
}

// Uvarint appends v in unsigned LEB128.
func (e *Encoder) Uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Varint appends v in zig-zag LEB128.
func (e *Encoder) Varint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

// uint32 appends v as 4 little-endian bytes.
func (e *Encoder) uint32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// Uint64 appends v as 8 little-endian bytes.
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// Float64 appends the IEEE-754 representation of v.
func (e *Encoder) Float64(v float64) {
	e.Uint64(math.Float64bits(v))
}

// Bool appends one byte: 1 for true, 0 for false.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Byte appends a single raw byte.
func (e *Encoder) Byte(v byte) {
	e.buf = append(e.buf, v)
}

// String appends a uvarint length prefix followed by the bytes of s.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes appends a uvarint length prefix followed by b.
func (e *Encoder) BytesField(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Raw appends b with no framing.
func (e *Encoder) Raw(b []byte) {
	e.buf = append(e.buf, b...)
}

// ReserveUvarint appends a one-byte placeholder for a uvarint whose value is
// not known yet and returns its position, for PatchUvarint. It is the
// primitive behind the zero-copy record framing: a length prefix can be
// reserved before the payload is encoded in place, instead of encoding the
// payload into a scratch buffer and copying it behind a computed prefix.
func (e *Encoder) ReserveUvarint() int {
	e.buf = append(e.buf, 0)
	return len(e.buf) - 1
}

// PatchUvarint sets the placeholder reserved at pos (by ReserveUvarint) to
// the number of bytes appended after it. Counts under 128 overwrite the
// placeholder in place — the common case for checkpoint record payloads;
// larger counts shift the tail right by the extra varint bytes, still
// producing exactly the stream a precomputed prefix would have.
func (e *Encoder) PatchUvarint(pos int) {
	n := uint64(len(e.buf) - pos - 1)
	if n < 0x80 {
		e.buf[pos] = byte(n)
		return
	}
	var tmp [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(tmp[:], n)
	old := len(e.buf)
	e.buf = slices.Grow(e.buf, w-1)[:old+w-1]
	copy(e.buf[pos+w:], e.buf[pos+1:old])
	copy(e.buf[pos:pos+w], tmp[:w])
}

// Decoder reads binary values from a byte slice.
//
// Errors are sticky: after the first failure every subsequent read returns
// the zero value and Err continues to report the original error.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder reading from b. The decoder does not copy b.
func NewDecoder(b []byte) *Decoder {
	return &Decoder{buf: b}
}

// Err returns the first error encountered, or nil.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of unread bytes.
func (d *Decoder) Len() int { return len(d.buf) - d.off }

// fail records err (if no error is pending) and returns it.
func (d *Decoder) fail(err error) error {
	if d.err == nil {
		d.err = err
	}
	return d.err
}

// Uvarint reads an unsigned LEB128 value.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	switch {
	case n > 0:
		d.off += n
		return v
	case n == 0:
		d.fail(ErrTruncated)
	default:
		d.fail(fmt.Errorf("%w: overlong uvarint at offset %d", ErrMalformed, d.off))
	}
	return 0
}

// Count reads a uvarint element count for a loop that consumes at least
// minElemBytes (at least 1) of the input per element. A count the unread
// input cannot hold — n × minElemBytes > Len() — fails the decoder with
// ErrTruncated and reads as 0, so a loop bounded by Count is bounded by the
// payload, whatever the payload claims.
func (d *Decoder) Count(minElemBytes int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Len()/max(minElemBytes, 1)) {
		d.fail(fmt.Errorf("%w: count %d with %d bytes left at offset %d", ErrTruncated, n, d.Len(), d.off))
		return 0
	}
	return int(n)
}

// Varint reads a zig-zag LEB128 value.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	switch {
	case n > 0:
		d.off += n
		return v
	case n == 0:
		d.fail(ErrTruncated)
	default:
		d.fail(fmt.Errorf("%w: overlong varint at offset %d", ErrMalformed, d.off))
	}
	return 0
}

// uint32 reads 4 little-endian bytes.
func (d *Decoder) uint32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.Len() < 4 {
		d.fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// Uint64 reads 8 little-endian bytes.
func (d *Decoder) Uint64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.Len() < 8 {
		d.fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Float64 reads an IEEE-754 float64.
func (d *Decoder) Float64() float64 {
	return math.Float64frombits(d.Uint64())
}

// Bool reads one byte and reports whether it is nonzero. A value other than
// 0 or 1 is malformed.
func (d *Decoder) Bool() bool {
	b := d.Byte()
	if d.err != nil {
		return false
	}
	switch b {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("%w: bool byte %#x at offset %d", ErrMalformed, b, d.off-1))
		return false
	}
}

// Byte reads a single raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.Len() < 1 {
		d.fail(ErrTruncated)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	return string(d.bytesField())
}

// BytesField reads a length-prefixed byte slice. The result is a copy and
// does not alias the decoder's input.
func (d *Decoder) BytesField() []byte {
	b := d.bytesField()
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// bytesField reads a length-prefixed slice aliasing the input buffer.
func (d *Decoder) bytesField() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Len()) {
		d.fail(ErrTruncated)
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// Raw reads n raw bytes, aliasing the input buffer.
func (d *Decoder) Raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.Len() {
		d.fail(ErrTruncated)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// skip advances past n bytes.
func (d *Decoder) skip(n int) {
	if d.err != nil {
		return
	}
	if n < 0 || n > d.Len() {
		d.fail(ErrTruncated)
		return
	}
	d.off += n
}
