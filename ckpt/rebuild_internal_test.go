package ckpt

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
)

// ModelObject is one object of a test model of a rebuilder's state.
type ModelObject struct {
	Type    TypeID
	Payload []byte
}

// Digest hashes everything a Rebuilder's later behaviour depends on: every
// known id with its type and payload bytes in id order, the largest id, and
// whether a full checkpoint anchors the state. Two rebuilders with equal
// digests build the same objects and accept the same next body. It exists
// for the external tests (ApplyRun's oracle and fuzz target).
func (rb *Rebuilder) Digest() string {
	objs := make(map[uint64]ModelObject, rb.latest.n)
	_ = rb.latest.walk(nil, func(id uint64, rec latestRec) error {
		objs[id] = ModelObject{Type: rec.typeID, Payload: rec.payload}
		return nil
	})
	return DigestOf(objs, rb.maxID, rb.seen > 0)
}

// DigestOf is the Digest of a rebuilder that holds objs, has seen maxID as
// its largest id and is anchored by a full checkpoint or not, so that a test
// model of the state can be compared with the real one.
func DigestOf(objs map[uint64]ModelObject, maxID uint64, anchored bool) string {
	ids := make([]uint64, 0, len(objs))
	for id := range objs {
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
		o := objs[id]
		put(id)
		put(uint64(o.Type))
		put(uint64(len(o.Payload)))
		h.Write(o.Payload)
	}
	put(maxID)
	return fmt.Sprintf("%d objects, anchored=%t, %x", len(ids), anchored, h.Sum(nil))
}
