package spec

import (
	"fmt"

	"ickpt/ckpt"
)

// Execute runs the compiled plan over the structure rooted at root, writing
// records through w. The writer must be started in the mode the plan was
// compiled for, and root must be an instance of the plan's root class.
//
// Execution is the run-time-specialization backend: one monomorphic closure
// call per visited object instead of the generic driver's interface
// dispatch, with statically-elided tests and pruned subtrees.
func (p *Plan) Execute(w *ckpt.Writer, root any) error {
	if w.Mode() != p.mode {
		return fmt.Errorf("%w: plan compiled for %v mode, writer in %v mode",
			ErrPattern, p.mode, w.Mode())
	}
	if root == nil {
		return nil
	}
	return p.exec(w.Emitter(), p.root, root)
}

// Fold is Execute with the parfold.FoldFunc signature, for the parallel fold
// driver (ckpt/parfold). A compiled Plan is immutable — Compile freezes the
// nodes, edges and bindings, and Execute only reads them — so one plan is
// executed from many fold workers concurrently; the per-worker state (the
// emitter and its buffers) comes from the worker's own writer.
func (p *Plan) Fold(w *ckpt.Writer, root ckpt.Checkpointable) error {
	return p.Execute(w, root)
}

// EmitOne records exactly one object — no traversal — through the catalog
// binding for its type: the compiled plan's ckpt.EmitOne, for encoding a
// tracker's dirty set (ckpt.Writer.CheckpointDirty, parfold.FoldDirty).
//
// The record decision is the dirty index's, not the pattern's: the mark
// queue has already established that o is dirty, so EmitOne records any
// modified object of the catalog — including classes the pattern declares
// unmodified, whose record code a traversal plan elides. The pattern's
// static specialization and the runtime index thus compose: the binding
// supplies the monomorphic record code, the index supplies the O(dirty)
// record decision. Objects of types outside the catalog return
// ckpt.ErrUnknownType.
func (p *Plan) EmitOne(em *ckpt.Emitter, o ckpt.Checkpointable) error {
	t := o.CheckpointTypeID()
	b, ok := p.byType[t]
	if !ok {
		return fmt.Errorf("%w: no catalog class for type id %d (%T)", ckpt.ErrUnknownType, t, o)
	}
	info := b.Info(o)
	if !info.Modified() {
		em.Skip()
		return nil
	}
	pl := em.Begin(info, t)
	b.Record(o, pl)
	em.End()
	info.ResetModified()
	return nil
}

// exec applies node n to object o and recurses over the plan's edges.
func (p *Plan) exec(em *ckpt.Emitter, n *planNode, o any) error {
	em.Visit()
	switch n.action {
	case recordAlways:
		info := n.binding.Info(o)
		pl := em.Begin(info, n.class.TypeID)
		n.binding.Record(o, pl)
		em.End()
		info.ResetModified()
	case recordIfModified:
		info := n.binding.Info(o)
		if info.Modified() {
			pl := em.Begin(info, n.class.TypeID)
			n.binding.Record(o, pl)
			em.End()
			info.ResetModified()
		} else {
			em.Skip()
		}
	case recordNever:
		if p.verify {
			if info := n.binding.Info(o); info.Modified() {
				return fmt.Errorf("%w: %s object %d is dirty in phase %q",
					ErrPatternViolated, n.class.Name, info.ID(), p.pattern)
			}
		}
	}

	for i := range n.edges {
		e := &n.edges[i]
		c := n.binding.Child(o, e.childIdx)
		if c == nil {
			continue
		}
		switch {
		case e.list && e.lastOnly:
			if err := p.execLastOnly(em, e, c); err != nil {
				return err
			}
		case e.list:
			nextIdx := e.node.class.NextChild
			for c != nil {
				if err := p.exec(em, e.node, c); err != nil {
					return err
				}
				c = e.node.binding.Child(c, nextIdx)
			}
		default:
			if err := p.exec(em, e.node, c); err != nil {
				return err
			}
		}
	}
	return nil
}

// execLastOnly walks a list whose pattern declares that only the final
// element may be modified: earlier elements are chased without tests or
// records, and only the last element is processed. In verify mode the
// earlier elements (and their subtrees) are checked for undeclared
// mutations through the edge's verify node.
func (p *Plan) execLastOnly(em *ckpt.Emitter, e *planEdge, head any) error {
	elem := e.node
	nextIdx := elem.class.NextChild
	c := head
	for {
		nx := elem.binding.Child(c, nextIdx)
		if nx == nil {
			break
		}
		if e.verifyNode != nil {
			if err := p.exec(em, e.verifyNode, c); err != nil {
				return err
			}
		}
		c = nx
	}
	return p.exec(em, elem, c)
}
