// Package analysis implements the paper's realistic application (Section
// 4): a program-analysis engine — side-effect analysis, binding-time
// analysis and evaluation-time analysis over a simplified C — whose
// per-statement results are stored in checkpointable Attributes structures
// and checkpointed at the end of every analysis iteration.
//
// The Attributes organization reproduces the paper's Figure 4:
//
//	Attributes ── SEEntry            (side-effect result: read/write sets)
//	           ── BTEntry ── BT      (binding-time annotation)
//	           ── ETEntry ── ET      (evaluation-time annotation)
//
// Each phase modifies only its own leaf objects: side-effect analysis
// writes SEEntry, binding-time analysis writes BT, evaluation-time analysis
// writes ET. Those are exactly the modification patterns the specialized
// per-phase checkpoint routines are compiled against.
package analysis

//go:generate go run ickpt/cmd/ckptderive -dir .

import "ickpt/ckpt"

// The checkpoint protocol of every type below — CheckpointInfo,
// CheckpointTypeID, Record, Fold, Restore, Registry and the specialization
// Catalog — is generated from the struct tags by cmd/ckptderive into
// zz_derived_ckpt.go.

// Binding-time annotations (BT.Ann).
const (
	// BTUnknown is the lattice bottom: not yet analyzed.
	BTUnknown uint64 = iota
	// BTStatic marks a statement evaluable entirely at specialization
	// time.
	BTStatic
	// BTDynamic marks a statement that must be residualized.
	BTDynamic
)

// Evaluation-time annotations (ET.Ann).
const (
	// ETUnknown is the lattice bottom: not yet analyzed.
	ETUnknown uint64 = iota
	// ETSafe marks a statement whose static variables are all initialized
	// at specialization time.
	ETSafe
	// ETUnsafe marks a statement that may read an uninitialized static
	// variable.
	ETUnsafe
)

// Attributes is the per-statement annotation record: one field per analysis
// phase (Figure 4). Its local record holds only the three child ids; the
// analysis results live in the leaves.
type Attributes struct {
	Info ckpt.Info
	SE   *SEEntry `ckpt:"child"`
	BT   *BTEntry `ckpt:"child"`
	ET   *ETEntry `ckpt:"child"`
}

// NewAttributes allocates the full per-statement annotation tree.
func NewAttributes(d *ckpt.Domain) *Attributes {
	return &Attributes{
		Info: ckpt.NewInfo(d),
		SE:   &SEEntry{Info: ckpt.NewInfo(d)},
		BT:   &BTEntry{Info: ckpt.NewInfo(d), BT: &BT{Info: ckpt.NewInfo(d)}},
		ET:   &ETEntry{Info: ckpt.NewInfo(d), ET: &ET{Info: ckpt.NewInfo(d)}},
	}
}

// SEEntry holds the side-effect analysis result for one statement: bitsets
// over global-variable ids of the variables the statement (transitively)
// reads and writes. The paper notes side-effect analysis "records both
// lists" while the other phases record a single annotation.
type SEEntry struct {
	Info   ckpt.Info
	Reads  []byte `ckpt:"field"`
	Writes []byte `ckpt:"field"`
}

// BTEntry is the binding-time phase's per-statement entry; the annotation
// itself lives in the BT child, mirroring the paper's Entry/BTEntry/BT
// chain whose traversal structural specialization inlines.
type BTEntry struct {
	Info ckpt.Info
	BT   *BT `ckpt:"child"`
}

// BT carries the binding-time annotation for one statement.
type BT struct {
	Info ckpt.Info
	Ann  uint64 `ckpt:"field"`
}

// Set joins v into the annotation, marking the object modified only when
// the annotation actually changes — the language-level dirty tracking that
// makes later fixpoint iterations produce small incremental checkpoints.
func (b *BT) Set(v uint64) bool {
	if b.Ann == v {
		return false
	}
	b.Ann = v
	b.Info.Mark()
	return true
}

// ETEntry is the evaluation-time phase's per-statement entry.
type ETEntry struct {
	Info ckpt.Info
	ET   *ET `ckpt:"child"`
}

// ET carries the evaluation-time annotation for one statement.
type ET struct {
	Info ckpt.Info
	Ann  uint64 `ckpt:"field"`
}

// Set joins v into the annotation, marking the object modified only on
// change.
func (t *ET) Set(v uint64) bool {
	if t.Ann == v {
		return false
	}
	t.Ann = v
	t.Info.Mark()
	return true
}
