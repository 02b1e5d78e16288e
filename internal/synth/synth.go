// Package synth implements the paper's synthetic benchmark workload
// (Section 5): a population of compound structures, each holding five
// linked lists, whose elements carry either one or ten integers. A
// deterministic mutation driver marks elements modified according to the
// experiment's parameters: the percentage of eligible elements actually
// modified, the number of lists that may contain modified elements, and
// whether only the last element of each list is eligible.
//
// Because program specialization is specialization with respect to a static
// structure, the two payload sizes are two distinct element types —
// [Element1] and [Element10] — exactly as the paper's synthetic Java program
// fixes the class layout per experiment.
package synth

import "ickpt/ckpt"

// NumLists is the number of linked lists per structure (the paper uses 5).
const NumLists = 5

// The checkpoint protocol of every type below — CheckpointInfo,
// CheckpointTypeID, Record, Fold, Restore, Registry and the specialization
// Catalog — is generated from the struct tags by cmd/ckptderive into
// zz_derived_ckpt.go.

// Element1 is a list element recording one integer.
type Element1 struct {
	Info ckpt.Info
	V0   int64     `ckpt:"field"`
	Next *Element1 `ckpt:"next"`
}

// Element10 is a list element recording ten integers.
type Element10 struct {
	Info ckpt.Info
	V0   int64      `ckpt:"field"`
	V1   int64      `ckpt:"field"`
	V2   int64      `ckpt:"field"`
	V3   int64      `ckpt:"field"`
	V4   int64      `ckpt:"field"`
	V5   int64      `ckpt:"field"`
	V6   int64      `ckpt:"field"`
	V7   int64      `ckpt:"field"`
	V8   int64      `ckpt:"field"`
	V9   int64      `ckpt:"field"`
	Next *Element10 `ckpt:"next"`
}

// Structure1 is a compound structure holding five lists of Element1.
type Structure1 struct {
	Info ckpt.Info
	L0   *Element1 `ckpt:"list"`
	L1   *Element1 `ckpt:"list"`
	L2   *Element1 `ckpt:"list"`
	L3   *Element1 `ckpt:"list"`
	L4   *Element1 `ckpt:"list"`
}

func (s *Structure1) lists() [NumLists]*Element1 {
	return [NumLists]*Element1{s.L0, s.L1, s.L2, s.L3, s.L4}
}

// List returns the head of list i (0-based).
func (s *Structure1) List(i int) *Element1 { return s.lists()[i] }

// Structure10 is a compound structure holding five lists of Element10.
type Structure10 struct {
	Info ckpt.Info
	L0   *Element10 `ckpt:"list"`
	L1   *Element10 `ckpt:"list"`
	L2   *Element10 `ckpt:"list"`
	L3   *Element10 `ckpt:"list"`
	L4   *Element10 `ckpt:"list"`
}

func (s *Structure10) lists() [NumLists]*Element10 {
	return [NumLists]*Element10{s.L0, s.L1, s.L2, s.L3, s.L4}
}

// List returns the head of list i (0-based).
func (s *Structure10) List(i int) *Element10 { return s.lists()[i] }
