package main

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"sort"
	"sync"
	"syscall"
)

// The calibration kernel is a fixed piece of the benchmark's own work — no
// call into the program under test — that a round times three times: before
// setup, after the checkpointed pass and at its end. The round's speed factor
// is the kernel's mean time over calibRefNs, and every time the round reports
// is divided by it (runRound says why). The kernel mixes what the workloads
// mix, so that it slows down when they do: dependent loads across a region
// larger than any private cache, a checksum and a copy over a buffer, a sort,
// and a map filled with freshly allocated nodes.
const (
	// calibRefNs is what one kernel run takes on the sizing machine in a
	// quiet spell. It only fixes the unit: a round on a machine in that state
	// reports its times as measured.
	calibRefNs = 45e6

	calibRingLen = 8 << 20 // uint32 entries: 32 MB
	calibChase   = 1 << 17 // dependent loads per run
	calibBufLen  = 1 << 20
	calibSums    = 16 // checksum + copy rounds over the buffer
	calibSortLen = 1 << 16
	calibSorts   = 2
	calibMapOps  = 1 << 16
)

var (
	calibOnce sync.Once
	// calibRing is a random single-cycle permutation, outside the Go heap:
	// inside it, it would be live_heap_mb's largest part and would halve the
	// collector's frequency for every workload.
	calibRing []byte
	calibSink uint64 // keeps the kernel's results alive
)

// calibInit builds the permutation (Sattolo's algorithm, fixed seed).
func calibInit() {
	ring, err := syscall.Mmap(-1, 0, 4*calibRingLen, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("bench: calibration ring: " + err.Error())
	}
	at := func(i int) uint32 { return binary.LittleEndian.Uint32(ring[4*i:]) }
	set := func(i int, v uint32) { binary.LittleEndian.PutUint32(ring[4*i:], v) }
	for i := 0; i < calibRingLen; i++ {
		set(i, uint32(i))
	}
	rng := rand.New(rand.NewSource(1))
	for i := calibRingLen - 1; i > 0; i-- {
		j := rng.Intn(i)
		vi, vj := at(i), at(j)
		set(i, vj)
		set(j, vi)
	}
	calibRing = ring
}

type calibNode struct {
	next *calibNode
	key  uint64
	hits uint64
}

// calibrate runs the kernel once and returns its wall time in ns.
func calibrate() int64 {
	calibOnce.Do(calibInit)
	t0 := nowNs()

	p := uint32(0)
	for i := 0; i < calibChase; i++ {
		p = binary.LittleEndian.Uint32(calibRing[4*p:])
	}
	sink := uint64(p)

	buf := make([]byte, calibBufLen)
	for i := 0; i < calibSums; i++ {
		buf[i] = byte(i + 1)
		sink += uint64(crc32.ChecksumIEEE(buf))
		copy(buf[1:], buf[:len(buf)-1])
	}

	x := uint64(2463534242)
	ints := make([]int, calibSortLen)
	for r := 0; r < calibSorts; r++ {
		for i := range ints {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			ints[i] = int(x >> 20)
		}
		sort.Ints(ints)
		sink += uint64(ints[len(ints)/2])
	}

	nodes := make(map[uint64]*calibNode)
	var head *calibNode
	for i := 0; i < calibMapOps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k := x >> 45
		n := nodes[k]
		if n == nil {
			n = &calibNode{next: head, key: k}
			head = n
			nodes[k] = n
		}
		n.hits++
	}
	sink += uint64(len(nodes)) + head.hits

	calibSink += sink
	return nowNs() - t0
}
