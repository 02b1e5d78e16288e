package difftest

import (
	"fmt"
	"math/rand"

	"ickpt/ckpt"
	"ickpt/ckpt/parfold"
	"ickpt/reflectckpt"
	"ickpt/spec"
)

// The editor workload mirrors examples/editor — documents holding linked
// lists of paragraphs, mutated through Cells — as a difftest-local
// population (the example is package main and cannot be imported). Several
// documents act as fold roots so the parallel strategy has real shards.

// The editor types' checkpoint protocol, Registry and Catalog are generated
// from the struct tags by cmd/ckptderive into zz_derived_ckpt.go, as the
// example's are.

//go:generate go run ickpt/cmd/ckptderive -dir .

type paragraph struct {
	Info ckpt.Info
	Text ckpt.Cell[string] `ckpt:"field"`
	Revs ckpt.Cell[int64]  `ckpt:"field"`
	Next *paragraph        `ckpt:"next"`
}

type document struct {
	Info  ckpt.Info
	Title ckpt.Cell[string] `ckpt:"field"`
	Edits ckpt.Cell[int64]  `ckpt:"field"`
	Head  *paragraph        `ckpt:"list"`
}

// checkpointEditorIncr is the hand-written analog of a generated specialized
// incremental routine for the editor structure (no pattern: every class may
// be modified), in the exact shape cmd/ckptgen emits — it stands in for the
// codegen engine on this workload.
func checkpointEditorIncr(root ckpt.Checkpointable, em *ckpt.Emitter) {
	doc := root.(*document)
	em.Visit()
	if doc.Info.Modified() {
		p := em.Begin(&doc.Info, derivedTypedocument)
		p.String(doc.Title.V)
		p.Varint(doc.Edits.V)
		if c := doc.Head; c != nil {
			p.Uvarint(c.Info.ID())
		} else {
			p.Uvarint(ckpt.NilID)
		}
		em.End()
		doc.Info.ResetModified()
	} else {
		em.Skip()
	}
	for c := doc.Head; c != nil; c = c.Next {
		em.Visit()
		if c.Info.Modified() {
			p := em.Begin(&c.Info, derivedTypeparagraph)
			p.String(c.Text.V)
			p.Varint(c.Revs.V)
			if n := c.Next; n != nil {
				p.Uvarint(n.Info.ID())
			} else {
				p.Uvarint(ckpt.NilID)
			}
			em.End()
			c.Info.ResetModified()
		} else {
			em.Skip()
		}
	}
}

// emitEditorOne is the hand-written analog of a generated single-object
// EmitOne routine for the editor structure, in the exact shape cmd/ckptgen
// emits — the dirty-strategy counterpart of checkpointEditorIncr. The driver
// owns the Visit call.
func emitEditorOne(em *ckpt.Emitter, o ckpt.Checkpointable) error {
	switch v := o.(type) {
	case *document:
		if v.Info.Modified() {
			p := em.Begin(&v.Info, derivedTypedocument)
			p.String(v.Title.V)
			p.Varint(v.Edits.V)
			if c := v.Head; c != nil {
				p.Uvarint(c.Info.ID())
			} else {
				p.Uvarint(ckpt.NilID)
			}
			em.End()
			v.Info.ResetModified()
		} else {
			em.Skip()
		}
	case *paragraph:
		if v.Info.Modified() {
			p := em.Begin(&v.Info, derivedTypeparagraph)
			p.String(v.Text.V)
			p.Varint(v.Revs.V)
			if n := v.Next; n != nil {
				p.Uvarint(n.Info.ID())
			} else {
				p.Uvarint(ckpt.NilID)
			}
			em.End()
			v.Info.ResetModified()
		} else {
			em.Skip()
		}
	default:
		return ckpt.ErrUnknownType
	}
	return nil
}

// editorSetup builds the shared skeleton of every editor trace: the
// document population, the compiled plans, and the engine list.
func editorSetup(docs, paras int) (*ckpt.Domain, []*document, []ckpt.Checkpointable, []EngineSpec, error) {
	domain := ckpt.NewDomain()
	population := make([]*document, 0, docs)
	roots := make([]ckpt.Checkpointable, 0, docs)
	for di := 0; di < docs; di++ {
		doc := &document{Info: ckpt.NewInfo(domain)}
		doc.Title.V = fmt.Sprintf("doc %d", di)
		for pi := paras - 1; pi >= 0; pi-- {
			p := &paragraph{Info: ckpt.NewInfo(domain)}
			p.Text.V = fmt.Sprintf("d%d p%d", di, pi)
			p.Next = doc.Head
			doc.Head = p
		}
		population = append(population, doc)
		roots = append(roots, doc)
	}

	planIncr, err := spec.Compile(Catalog(), "document", nil, spec.WithMode(ckpt.Incremental))
	if err != nil {
		return nil, nil, nil, nil, err
	}
	planFull, err := spec.Compile(Catalog(), "document", nil, spec.WithMode(ckpt.Full))
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return domain, population, roots, editorEngines(planIncr, planFull), nil
}

// EditorTrace builds a trace over the editor workload: docs documents of
// paras paragraphs each, a base full checkpoint, then rounds of seeded
// editing-through-Cells with one incremental checkpoint per round.
func EditorTrace(docs, paras, rounds int, seed int64) Trace {
	name := fmt.Sprintf("editor-d%d-p%d", docs, paras)
	return Trace{Name: name, Build: func() (*Population, error) {
		domain, population, roots, engines, err := editorSetup(docs, paras)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed))
		return &Population{
			Roots:    roots,
			Domain:   domain,
			Registry: Registry(),
			Replay: func(take Take) error {
				if err := take(ckpt.Full, ""); err != nil {
					return err
				}
				for r := 0; r < rounds; r++ {
					for _, doc := range population {
						n := 0
						for p := doc.Head; p != nil; p = p.Next {
							if rng.Intn(3) == 0 {
								p.Text.Set(&p.Info, p.Text.V+"+")
								p.Revs.Set(&p.Info, p.Revs.V+1)
								n++
							}
						}
						if n > 0 {
							doc.Edits.Set(&doc.Info, doc.Edits.V+int64(n))
						}
					}
					if err := take(ckpt.Incremental, ""); err != nil {
						return err
					}
				}
				return nil
			},
			Engines: engines,
		}, nil
	}}
}

func editorEngines(planIncr, planFull *spec.Plan) []EngineSpec {
	reflectEng := reflectckpt.NewEngine()
	return []EngineSpec{
		{Name: "virtual"},
		{Name: "reflect",
			NewFold: func(ckpt.Mode, string) parfold.FoldFunc {
				return reflectEng.Checkpoint
			},
			NewEmit: func(string) ckpt.EmitOne { return reflectEng.EmitOne },
		},
		{Name: "plan",
			NewFold: func(mode ckpt.Mode, _ string) parfold.FoldFunc {
				plan := planIncr
				if mode == ckpt.Full {
					plan = planFull
				}
				return plan.Fold
			},
			NewEmit: func(string) ckpt.EmitOne { return planIncr.EmitOne },
		},
		{Name: "codegen",
			NewFold: func(mode ckpt.Mode, _ string) parfold.FoldFunc {
				if mode != ckpt.Incremental {
					return nil
				}
				return parfold.FoldEmitter(checkpointEditorIncr)
			},
			NewEmit: func(string) ckpt.EmitOne { return emitEditorOne },
		},
	}
}

// undoEdit is one reversible paragraph edit for the undo/redo script: enough
// before/after state to revert or re-apply it through the Cells, so the
// tracker sees every direction of travel as an ordinary mutation.
type undoEdit struct {
	doc                *document
	p                  *paragraph
	oldText, newText   string
	oldRevs, newRevs   int64
	oldEdits, newEdits int64
}

func (e *undoEdit) apply() {
	e.p.Text.Set(&e.p.Info, e.newText)
	e.p.Revs.Set(&e.p.Info, e.newRevs)
	e.doc.Edits.Set(&e.doc.Info, e.newEdits)
}

func (e *undoEdit) revert() {
	e.p.Text.Set(&e.p.Info, e.oldText)
	e.p.Revs.Set(&e.p.Info, e.oldRevs)
	e.doc.Edits.Set(&e.doc.Info, e.oldEdits)
}

// EditorUndoTrace builds the time-travel showcase workload: the editor
// population driven by an undo/redo script. Each round either makes a burst
// of edits (pushing them on an undo stack and clearing the redo stack),
// undoes the most recent edits, or redoes undone ones; a checkpoint closes
// every round — Full every fullEvery rounds (the first round included),
// Incremental otherwise. Rewinding the resulting log IS undo at the
// persistence layer, so this trace exercises RewindTo across states that
// revisit earlier values.
func EditorUndoTrace(docs, paras, rounds, fullEvery int, seed int64) Trace {
	name := fmt.Sprintf("editor-undo-d%d-p%d-r%d", docs, paras, rounds)
	return Trace{Name: name, Build: func() (*Population, error) {
		domain, population, roots, engines, err := editorSetup(docs, paras)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed))
		return &Population{
			Roots:    roots,
			Domain:   domain,
			Registry: Registry(),
			Replay: func(take Take) error {
				var undo, redo []*undoEdit
				editBurst := func() {
					doc := population[rng.Intn(len(population))]
					for p := doc.Head; p != nil; p = p.Next {
						if rng.Intn(3) != 0 {
							continue
						}
						e := &undoEdit{
							doc: doc, p: p,
							oldText: p.Text.V, newText: p.Text.V + "+",
							oldRevs: p.Revs.V, newRevs: p.Revs.V + 1,
							oldEdits: doc.Edits.V, newEdits: doc.Edits.V + 1,
						}
						e.apply()
						undo = append(undo, e)
					}
					redo = redo[:0]
				}
				for r := 0; r < rounds; r++ {
					switch action := rng.Intn(4); {
					case action == 2 && len(undo) > 0:
						for n := rng.Intn(3) + 1; n > 0 && len(undo) > 0; n-- {
							e := undo[len(undo)-1]
							undo = undo[:len(undo)-1]
							e.revert()
							redo = append(redo, e)
						}
					case action == 3 && len(redo) > 0:
						for n := rng.Intn(3) + 1; n > 0 && len(redo) > 0; n-- {
							e := redo[len(redo)-1]
							redo = redo[:len(redo)-1]
							e.apply()
							undo = append(undo, e)
						}
					default:
						editBurst()
					}
					mode := ckpt.Incremental
					if r%fullEvery == 0 {
						mode = ckpt.Full
					}
					if err := take(mode, ""); err != nil {
						return err
					}
				}
				return nil
			},
			Engines: engines,
		}, nil
	}}
}
