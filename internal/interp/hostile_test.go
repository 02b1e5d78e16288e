package interp_test

import (
	"errors"
	"runtime"
	"testing"

	"ickpt/ckpt"
	"ickpt/internal/interp"
	"ickpt/wire"
)

// TestRestoreHostileCountAllocatesNothing: a closure payload of six bytes —
// nil environment, no parameters, and a body count of 2^24 — is well framed
// but lies about its size. Restoring it must fail as truncated input
// without allocating for the elements it claims (unbounded, a loop on the
// raw count allocated about 733 MB before it failed).
func TestRestoreHostileCountAllocatesNothing(t *testing.T) {
	payload := wire.NewEncoder(8)
	payload.Uvarint(ckpt.NilID) // environment
	payload.Uvarint(0)          // parameters
	payload.Uvarint(1 << 24)    // body indices, none of which follow
	if payload.Len() != 6 {
		t.Fatalf("payload is %d bytes, want 6", payload.Len())
	}
	body := wire.NewEncoder(32)
	body.Byte(1)
	body.Byte(byte(ckpt.Full))
	body.Uvarint(1)
	body.Uvarint(1) // object id
	body.Uvarint(uint64(interp.TypeClosure))
	body.Uvarint(uint64(payload.Len()))
	body.Raw(payload.Bytes())

	rb := ckpt.NewRebuilder(interp.NewRegistry())
	if err := rb.Apply(body.Bytes()); err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := rb.Build(nil)
	runtime.ReadMemStats(&m1)
	if !errors.Is(err, wire.ErrTruncated) {
		t.Errorf("Build = %v, want ErrTruncated", err)
	}
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 1<<20 {
		t.Errorf("Build of a 6-byte payload allocated %d bytes", grew)
	}
}
