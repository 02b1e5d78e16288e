package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

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
			if !AppendDelta(&e, base, next, len(next)) {
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
	if AppendDelta(&e, base, next, len(next)*3/4) {
		t.Fatal("fully-churned payload produced a delta under 3/4 of its size")
	}
	if !bytes.Equal(e.Bytes(), before) {
		t.Fatal("aborted AppendDelta left bytes behind")
	}
}

func TestDeltaSmallChangeIsSmall(t *testing.T) {
	base := make([]byte, 4096)
	rand.New(rand.NewSource(3)).Read(base)
	next := append([]byte(nil), base...)
	next[100] ^= 0xff
	next[3000] ^= 0x01
	var e Encoder
	if !AppendDelta(&e, base, next, len(next)*3/4) {
		t.Fatal("two-byte change did not delta")
	}
	if e.Len() > 64 {
		t.Fatalf("two-byte change encoded to %d bytes", e.Len())
	}
}

func TestDeltaLengthMismatch(t *testing.T) {
	base := []byte("0123456789abcdef")
	var e Encoder
	if AppendDelta(&e, base, base[:8], len(base)) {
		t.Fatal("length-changing delta was encoded")
	}
	if !AppendDelta(&e, base, base, len(base)) {
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
	if !AppendDelta(&e, base, next, len(next)) {
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

// FuzzDeltaRoundTrip: for random base/next pairs of equal length,
// encode-delta followed by apply reproduces next exactly — out of place and
// in place over the base itself — and applying onto a base of the wrong
// length errors cleanly instead of corrupting or panicking.
func FuzzDeltaRoundTrip(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(0))
	f.Add([]byte("hello world, hello world"), []byte("helloворлд, hello world"), uint8(1))
	f.Add(bytes.Repeat([]byte{0xaa}, 512), bytes.Repeat([]byte{0xaa}, 512), uint8(9))
	seed := make([]byte, 256)
	rand.New(rand.NewSource(5)).Read(seed)
	f.Add(seed, mutate(seed, 0.05, 6), uint8(3))
	f.Fuzz(func(t *testing.T, base, next []byte, chop uint8) {
		if len(next) > len(base) {
			next = next[:len(base)]
		} else {
			next = append(next, base[len(next):]...)
		}
		var e Encoder
		if !AppendDelta(&e, base, next, len(next)+16) {
			return // over limit: encoder fell back, nothing to check
		}
		got, err := ApplyDelta(base, e.Bytes())
		if err != nil {
			t.Fatalf("apply: %v", err)
		}
		if !bytes.Equal(got, next) {
			t.Fatalf("round trip mismatch: %x -> %x, got %x", base, next, got)
		}
		// The rebuilder materializes a same-size delta over its own copy of the
		// base, in place: that must land on next too, exactly as out of place.
		inPlace := bytes.Clone(base)
		ApplyValidatedDelta(inPlace, inPlace, e.Bytes())
		if !bytes.Equal(inPlace, next) {
			t.Fatalf("in-place apply mismatch: %x -> %x, got %x", base, next, inPlace)
		}
		// Wrong-length bases must fail validation, never misapply.
		short := base[:len(base)-int(chop)%(len(base)+1)]
		if len(short) != len(base) {
			if _, err := ApplyDelta(short, e.Bytes()); !errors.Is(err, ErrBaseMismatch) {
				t.Fatalf("apply onto %d-byte base of %d-byte delta: %v", len(short), len(base), err)
			}
		}
	})
}
