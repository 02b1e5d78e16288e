package ckpt

// Slab is a block arena for Info-bearing objects: New hands out pointers
// into fixed-size blocks, so a high-churn workload (an interpreter
// allocating environments, pairs, and boxes every step) pays one heap
// allocation per block of objects instead of one per object, and the
// objects of a block stay contiguous — the same locality the dirty index's
// dense scan exploits, since Domains issue ids in allocation order.
//
// Slab never frees individual objects: its memory lives until the whole
// slab is released (dropped), matching checkpointed heaps whose objects
// stay reachable from the domain's roots for their lifetime. Addresses
// returned by New are stable — blocks are never moved or grown — which is
// what makes a slab safe for objects whose embedded Info is registered in a
// Tracker by address: its view and mark-queue hold *Info.
//
// Slab is not safe for concurrent use. The zero value is ready to use.
type Slab[T any] struct {
	blocks [][]T
	used   int // occupied slots in the last block
}

// slabBlock is the number of objects per block: large enough to amortize
// the per-block allocation, small enough that a sparse workload does not
// strand much memory.
const slabBlock = 256

// New returns a pointer to a zeroed T with a stable address.
func (s *Slab[T]) New() *T {
	if len(s.blocks) == 0 || s.used == slabBlock {
		s.blocks = append(s.blocks, make([]T, slabBlock))
		s.used = 0
	}
	p := &s.blocks[len(s.blocks)-1][s.used]
	s.used++
	return p
}

// Len returns the number of objects allocated from the slab.
func (s *Slab[T]) Len() int {
	if len(s.blocks) == 0 {
		return 0
	}
	return (len(s.blocks)-1)*slabBlock + s.used
}
