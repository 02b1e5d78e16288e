package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeScalars(t *testing.T) {
	e := NewEncoder(64)
	e.Uvarint(0)
	e.Uvarint(300)
	e.Uvarint(math.MaxUint64)
	e.Varint(0)
	e.Varint(-1)
	e.Varint(math.MinInt64)
	e.Varint(math.MaxInt64)
	e.uint32(0xdeadbeef)
	e.Uint64(0x0123456789abcdef)
	e.Float64(-3.5)
	e.Bool(true)
	e.Bool(false)
	e.Byte(0x7f)
	e.String("hello, 世界")
	e.BytesField([]byte{1, 2, 3})
	e.BytesField(nil)

	d := NewDecoder(e.Bytes())
	if got := d.Uvarint(); got != 0 {
		t.Errorf("Uvarint = %d, want 0", got)
	}
	if got := d.Uvarint(); got != 300 {
		t.Errorf("Uvarint = %d, want 300", got)
	}
	if got := d.Uvarint(); got != math.MaxUint64 {
		t.Errorf("Uvarint = %d, want MaxUint64", got)
	}
	if got := d.Varint(); got != 0 {
		t.Errorf("Varint = %d, want 0", got)
	}
	if got := d.Varint(); got != -1 {
		t.Errorf("Varint = %d, want -1", got)
	}
	if got := d.Varint(); got != math.MinInt64 {
		t.Errorf("Varint = %d, want MinInt64", got)
	}
	if got := d.Varint(); got != math.MaxInt64 {
		t.Errorf("Varint = %d, want MaxInt64", got)
	}
	if got := d.uint32(); got != 0xdeadbeef {
		t.Errorf("Uint32 = %#x", got)
	}
	if got := d.Uint64(); got != 0x0123456789abcdef {
		t.Errorf("Uint64 = %#x", got)
	}
	if got := d.Float64(); got != -3.5 {
		t.Errorf("Float64 = %v", got)
	}
	if got := d.Bool(); !got {
		t.Error("Bool = false, want true")
	}
	if got := d.Bool(); got {
		t.Error("Bool = true, want false")
	}
	if got := d.Byte(); got != 0x7f {
		t.Errorf("Byte = %#x", got)
	}
	if got := d.String(); got != "hello, 世界" {
		t.Errorf("String = %q", got)
	}
	if got := d.BytesField(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("BytesField = %v", got)
	}
	if got := d.BytesField(); len(got) != 0 {
		t.Errorf("BytesField = %v, want empty", got)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("Err() = %v", err)
	}
	if d.Len() != 0 {
		t.Errorf("Len() = %d after full decode", d.Len())
	}
}

func TestDecoderTruncated(t *testing.T) {
	e := NewEncoder(16)
	e.Uint64(42)
	full := e.Bytes()

	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		d.Uint64()
		if !errors.Is(d.Err(), ErrTruncated) {
			t.Errorf("cut=%d: err = %v, want ErrTruncated", cut, d.Err())
		}
	}
}

// TestDecoderCount: a count passes while count × minElemBytes fits in the
// bytes left after it, and fails the decoder as truncated input, reading as
// 0, the moment it does not.
func TestDecoderCount(t *testing.T) {
	for _, tc := range []struct {
		count   uint64
		minElem int
		left    int
		ok      bool
	}{
		{0, 1, 0, true},
		{3, 1, 3, true},
		{4, 1, 3, false},
		{3, 2, 6, true},
		{3, 2, 5, false},
		{2, 0, 2, true}, // a minimum below 1 counts as 1
		{3, 0, 2, false},
		{1 << 40, 1, 8, false},
		{math.MaxUint64, 8, 8, false},
	} {
		e := NewEncoder(16)
		e.Uvarint(tc.count)
		e.Raw(make([]byte, tc.left))
		d := NewDecoder(e.Bytes())
		n := d.Count(tc.minElem)
		switch {
		case tc.ok && (d.Err() != nil || uint64(n) != tc.count):
			t.Errorf("%+v: Count = %d, %v", tc, n, d.Err())
		case !tc.ok && (n != 0 || !errors.Is(d.Err(), ErrTruncated)):
			t.Errorf("%+v: Count = %d, %v; want 0, ErrTruncated", tc, n, d.Err())
		}
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder(nil)
	d.Uvarint()
	first := d.Err()
	if first == nil {
		t.Fatal("expected error on empty input")
	}
	// Subsequent reads return zero values and keep the first error.
	if got := d.Uint64(); got != 0 {
		t.Errorf("Uint64 after error = %d", got)
	}
	if got := d.String(); got != "" {
		t.Errorf("String after error = %q", got)
	}
	if d.Err() != first {
		t.Errorf("error changed: %v -> %v", first, d.Err())
	}
}

func TestDecoderMalformedBool(t *testing.T) {
	d := NewDecoder([]byte{7})
	d.Bool()
	if !errors.Is(d.Err(), ErrMalformed) {
		t.Errorf("err = %v, want ErrMalformed", d.Err())
	}
}

func TestDecoderMalformedUvarint(t *testing.T) {
	// 11 continuation bytes overflow a uint64.
	in := bytes.Repeat([]byte{0x80}, 10)
	in = append(in, 0x02)
	d := NewDecoder(in)
	d.Uvarint()
	if !errors.Is(d.Err(), ErrMalformed) {
		t.Errorf("err = %v, want ErrMalformed", d.Err())
	}
}

func TestBytesFieldCopies(t *testing.T) {
	e := NewEncoder(8)
	e.BytesField([]byte{9, 9, 9})
	buf := e.Bytes()
	d := NewDecoder(buf)
	got := d.BytesField()
	buf[len(buf)-1] = 0 // mutate the input
	if got[2] != 9 {
		t.Error("BytesField aliases the decoder input; want a copy")
	}
}

func TestRawAndSkip(t *testing.T) {
	e := NewEncoder(8)
	e.Raw([]byte{1, 2, 3, 4})
	d := NewDecoder(e.Bytes())
	d.skip(2)
	got := d.Raw(2)
	if !bytes.Equal(got, []byte{3, 4}) {
		t.Errorf("Raw = %v", got)
	}
	d.skip(1)
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", d.Err())
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(8)
	e.Uint64(1)
	e.Reset()
	if e.Len() != 0 {
		t.Errorf("Len after Reset = %d", e.Len())
	}
	e.Byte(5)
	if !bytes.Equal(e.Bytes(), []byte{5}) {
		t.Errorf("Bytes after Reset+Byte = %v", e.Bytes())
	}
}

func TestQuickUvarintRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		var e Encoder
		e.Uvarint(v)
		d := NewDecoder(e.Bytes())
		return d.Uvarint() == v && d.Err() == nil && d.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickVarintRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		var e Encoder
		e.Varint(v)
		d := NewDecoder(e.Bytes())
		return d.Varint() == v && d.Err() == nil && d.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMixedRoundTrip(t *testing.T) {
	type record struct {
		U  uint64
		I  int64
		F  float64
		B  bool
		S  string
		By []byte
	}
	f := func(r record) bool {
		var e Encoder
		e.Uvarint(r.U)
		e.Varint(r.I)
		e.Float64(r.F)
		e.Bool(r.B)
		e.String(r.S)
		e.BytesField(r.By)

		d := NewDecoder(e.Bytes())
		gotU := d.Uvarint()
		gotI := d.Varint()
		gotF := d.Float64()
		gotB := d.Bool()
		gotS := d.String()
		gotBy := d.BytesField()
		if d.Err() != nil || d.Len() != 0 {
			return false
		}
		sameF := gotF == r.F || (math.IsNaN(gotF) && math.IsNaN(r.F))
		return gotU == r.U && gotI == r.I && sameF && gotB == r.B &&
			gotS == r.S && bytes.Equal(gotBy, r.By)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickDecoderNeverPanics(t *testing.T) {
	// Arbitrary bytes must never panic the decoder, only error.
	f := func(in []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		d := NewDecoder(in)
		for d.Err() == nil && d.Len() > 0 {
			d.Uvarint()
			d.Bool()
			_ = d.String()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestEncoderGrow(t *testing.T) {
	e := NewEncoder(0)
	e.Uvarint(7)
	before := e.Bytes()
	e.Grow(1 << 12)
	if cap(e.buf)-e.Len() < 1<<12 {
		t.Fatalf("Grow(4096) left %d spare bytes", cap(e.buf)-e.Len())
	}
	if string(e.Bytes()) != string(before) {
		t.Fatal("Grow changed encoded content")
	}
	grown := cap(e.buf)
	e.Grow(16) // already satisfied: no reallocation
	if cap(e.buf) != grown {
		t.Fatalf("Grow(16) reallocated from %d to %d", grown, cap(e.buf))
	}
}

func TestReservePatchUvarint(t *testing.T) {
	// Every payload size class: in-place patch (<128), and tails that need a
	// 2- and 3-byte length prefix shifted in.
	for _, n := range []int{0, 1, 5, 127, 128, 129, 300, 16383, 16384, 70000} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		var want Encoder
		want.Uvarint(42)
		want.BytesField(payload)
		want.Uvarint(7)

		var got Encoder
		got.Uvarint(42)
		pos := got.ReserveUvarint()
		got.Raw(payload)
		got.PatchUvarint(pos)
		got.Uvarint(7)

		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("n=%d: reserve/patch stream differs from precomputed prefix", n)
		}
	}
}

func TestReservePatchUvarintNested(t *testing.T) {
	// Reserve/patch composes with surrounding writes: frame two records
	// back to back and decode them.
	var e Encoder
	p1 := e.ReserveUvarint()
	e.String("hello")
	e.Varint(-9)
	e.PatchUvarint(p1)
	p2 := e.ReserveUvarint()
	e.Raw(make([]byte, 200))
	e.PatchUvarint(p2)

	d := NewDecoder(e.Bytes())
	b1 := d.BytesField()
	b2 := d.BytesField()
	if d.Err() != nil || d.Len() != 0 {
		t.Fatalf("decode: err=%v rest=%d", d.Err(), d.Len())
	}
	inner := NewDecoder(b1)
	if s := inner.String(); s != "hello" {
		t.Fatalf("inner string = %q", s)
	}
	if v := inner.Varint(); v != -9 {
		t.Fatalf("inner varint = %d", v)
	}
	if len(b2) != 200 {
		t.Fatalf("second field = %d bytes, want 200", len(b2))
	}
}
