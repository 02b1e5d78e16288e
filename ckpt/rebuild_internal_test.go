package ckpt

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ickpt/wire"
)

// Digest hashes everything a Rebuilder's later behaviour depends on: every
// known id with its type and payload bytes in id order, the largest id, and
// whether a full checkpoint anchors the state. Two rebuilders with equal
// digests build the same objects and accept the same next body. It exists
// for the external tests (ApplyRun's oracle and fuzz target).
func (rb *Rebuilder) Digest() string {
	ids := make([]uint64, 0, len(rb.latest))
	for id := range rb.latest {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	h := sha256.New()
	var n [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(n[:], v)
		h.Write(n[:])
	}
	for _, id := range ids {
		rec := rb.latest[id]
		put(id)
		put(uint64(rec.typeID))
		put(uint64(len(rec.payload)))
		h.Write(rec.payload)
	}
	put(rb.maxID)
	return fmt.Sprintf("%d objects, anchored=%t, %x", len(ids), rb.seen > 0, h.Sum(nil))
}

// TestRunsAndFullsLeaveStagedUntouched is the structural form of "a replayed
// body costs O(that body)": the validation map of the incremental Apply is
// not read, written, cleared or replaced by Apply(Full) or ApplyRun, so its
// size can only ever be that of the largest incremental body.
func TestRunsAndFullsLeaveStagedUntouched(t *testing.T) {
	body := func(mode Mode, epoch uint64, ids ...uint64) []byte {
		e := wire.NewEncoder(64)
		e.Byte(bodyVersion)
		e.Byte(byte(mode))
		e.Uvarint(epoch)
		for _, id := range ids {
			e.Uvarint(id)
			e.Uvarint(1) // type
			e.Uvarint(1) // payload length
			e.Byte(byte(epoch))
		}
		return e.Bytes()
	}
	full, incr := body(Full, 1, 1, 2, 3), body(Incremental, 2, 2)

	rb := NewRebuilder(NewRegistry())
	if err := rb.Apply(full); err != nil {
		t.Fatal(err)
	}
	if err := rb.ApplyRun([][]byte{full, incr}); err != nil {
		t.Fatal(err)
	}
	if rb.staged != nil {
		t.Fatalf("Apply(Full) + ApplyRun allocated the staging map (%d entries)", len(rb.staged))
	}

	// A sentinel entry a clear, a write or a swap would disturb.
	sentinel := stagedRec{typeID: 99, payload: []byte("sentinel")}
	rb.staged = map[uint64]stagedRec{7: sentinel}
	was := reflect.ValueOf(rb.staged).Pointer()
	check := func(after string) {
		t.Helper()
		if got := reflect.ValueOf(rb.staged).Pointer(); got != was {
			t.Fatalf("%s replaced the staging map", after)
		}
		if got, ok := rb.staged[7]; len(rb.staged) != 1 || !ok || !reflect.DeepEqual(got, sentinel) {
			t.Fatalf("%s touched the staging map: %v", after, rb.staged)
		}
	}
	if err := rb.Apply(full); err != nil {
		t.Fatal(err)
	}
	check("Apply(Full)")
	if err := rb.ApplyRun([][]byte{full, incr}); err != nil {
		t.Fatal(err)
	}
	check("a full-anchored ApplyRun")
	if err := rb.ApplyRun([][]byte{incr}); err != nil {
		t.Fatal(err)
	}
	check("an extending ApplyRun")
	if err := rb.ApplyRun([][]byte{full, incr[:len(incr)-1]}); err == nil {
		t.Fatal("torn run applied")
	}
	check("a failed ApplyRun")

	// The incremental Apply is what the map is for, and it leaves it empty.
	delete(rb.staged, 7)
	if err := rb.Apply(incr); err != nil {
		t.Fatal(err)
	}
	if got := reflect.ValueOf(rb.staged).Pointer(); got != was || len(rb.staged) != 0 {
		t.Fatalf("incremental Apply left %d staged entries (same map: %t)", len(rb.staged), got == was)
	}
}
