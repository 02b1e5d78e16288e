package wire

import (
	"bytes"
	"testing"
)

// FuzzDecoder feeds arbitrary bytes through every read method: the decoder
// must error cleanly, never panic or loop.
func FuzzDecoder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{0x02, 'h', 'i'})
	var seed Encoder
	seed.Uvarint(300)
	seed.Varint(-5)
	seed.Float64(3.14)
	seed.Bool(true)
	seed.String("seed")
	f.Add(append([]byte(nil), seed.Bytes()...))

	f.Fuzz(func(t *testing.T, in []byte) {
		d := NewDecoder(in)
		for d.Err() == nil && d.Len() > 0 {
			before := d.off
			d.Uvarint()
			d.Varint()
			d.Float64()
			d.Bool()
			_ = d.String()
			_ = d.BytesField()
			if d.Err() == nil && d.off == before {
				t.Fatal("decoder made no progress without error")
			}
		}
	})
}

// FuzzRoundTrip: encoding the decoded values of a valid stream reproduces
// the consumed prefix exactly for self-delimiting types.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(0), int64(0), false, "")
	f.Add(uint64(1<<63), int64(-1), true, "round trip")
	f.Fuzz(func(t *testing.T, u uint64, i int64, b bool, s string) {
		var e Encoder
		e.Uvarint(u)
		e.Varint(i)
		e.Bool(b)
		e.String(s)

		d := NewDecoder(e.Bytes())
		gu := d.Uvarint()
		gi := d.Varint()
		gb := d.Bool()
		gs := d.String()
		if err := d.Err(); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if gu != u || gi != i || gb != b || gs != s {
			t.Fatalf("round trip: (%d %d %v %q) != (%d %d %v %q)", gu, gi, gb, gs, u, i, b, s)
		}

		var e2 Encoder
		e2.Uvarint(gu)
		e2.Varint(gi)
		e2.Bool(gb)
		e2.String(gs)
		if !bytes.Equal(e.Bytes(), e2.Bytes()) {
			t.Fatal("re-encoding differs")
		}
	})
}
