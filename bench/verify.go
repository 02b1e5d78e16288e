package main

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"

	"ickpt/ckpt"
	"ickpt/wire"
)

// digest identifies an object graph's state: SHA-256 over (id, type id,
// recorded payload) of every object in ascending id order — what a Full
// body over ckpt.SortRoots order carries, minus framing, so a live graph, a
// recovered one and a rewound one compare by value.
type digest [sha256.Size]byte

type digester struct {
	ids  []uint64
	objs map[uint64]ckpt.Checkpointable
}

func (d *digester) sum() digest {
	sort.Slice(d.ids, func(i, j int) bool { return d.ids[i] < d.ids[j] })
	h := sha256.New()
	var enc wire.Encoder
	var hdr [16]byte
	for _, id := range d.ids {
		o := d.objs[id]
		enc.Reset()
		o.Record(&enc)
		binary.LittleEndian.PutUint64(hdr[:], id)
		binary.LittleEndian.PutUint32(hdr[8:], uint32(o.CheckpointTypeID()))
		binary.LittleEndian.PutUint32(hdr[12:], uint32(enc.Len()))
		h.Write(hdr[:])
		h.Write(enc.Bytes())
	}
	var out digest
	h.Sum(out[:0])
	return out
}

// digestRoots digests the graph reachable from roots without touching a
// modified flag (ckpt.IndexRoots traverses, it does not record).
func digestRoots(roots []ckpt.Checkpointable) (digest, error) {
	idx, err := ckpt.IndexRoots(roots...)
	if err != nil {
		return digest{}, err
	}
	d := digester{objs: make(map[uint64]ckpt.Checkpointable, idx.Len())}
	idx.Each(func(id uint64, o ckpt.Checkpointable) {
		d.ids = append(d.ids, id)
		d.objs[id] = o
	})
	return d.sum(), nil
}

// digestRebuilt digests what Rebuilder.Build returned.
func digestRebuilt(objs map[uint64]ckpt.Restorable) digest {
	d := digester{objs: make(map[uint64]ckpt.Checkpointable, len(objs))}
	for id, o := range objs {
		d.ids = append(d.ids, id)
		d.objs[id] = o
	}
	return d.sum()
}
