package spec

import (
	"fmt"

	"ickpt/ckpt"
)

// Observer infers a modification [Pattern] by watching a program phase run:
// before each checkpoint of the phase, Observe walks the structure and
// records which classes carry dirty objects and at which list positions
// dirty elements occur. Pattern then emits the strongest declaration
// consistent with everything observed.
//
// This implements the extension the paper proposes in its conclusion — "we
// propose to automatically construct specialization classes based on an
// analysis of the data modification pattern of the program" — as a dynamic
// analysis: run the phase once under observation, compile the inferred
// pattern, and (in testing builds) keep executing with WithVerify so any
// behaviour change surfaces as ErrPatternViolated rather than a corrupt
// checkpoint.
//
// Observer is not safe for concurrent use.
type Observer struct {
	cat  *Catalog
	root string

	// classDirty records classes observed with a set modified flag.
	classDirty map[string]bool
	// edges records per child edge whether a dirty object was observed
	// anywhere in the subtree, and for list edges, whether one was
	// observed at a non-final position.
	edges map[string]*edgeObs
	// bagDirty records classes reported dirty positionlessly, through
	// ObserveDirty's bag of objects rather than a walk. A bag observation
	// carries no per-edge facts, so every edge whose subtree can reach a
	// bag-dirty class loses its edge-level claims.
	bagDirty map[string]bool
}

type edgeObs struct {
	list          bool
	dirtySubtree  bool
	dirtyNonFinal bool
}

// NewObserver prepares an observer for structures of class root.
func NewObserver(cat *Catalog, root string) (*Observer, error) {
	if cat.class(root) == nil {
		return nil, fmt.Errorf("%w: unknown root class %q", ErrClass, root)
	}
	if err := cat.validate(); err != nil {
		return nil, err
	}
	return &Observer{
		cat:        cat,
		root:       root,
		classDirty: make(map[string]bool),
		edges:      make(map[string]*edgeObs),
		bagDirty:   make(map[string]bool),
	}, nil
}

// Observe walks one structure, recording its current modified flags. Call
// it immediately before each checkpoint of the phase being profiled (on
// every root, if there are several).
func (o *Observer) Observe(root any) error {
	if root == nil {
		return nil
	}
	_, err := o.visit(o.root, root)
	return err
}

// ObserveDirty records a bag of dirty objects — typically a mark-queue
// drain (ckpt.Tracker.Take) — as one observation. Where Observe walks the
// structure before a checkpoint, ObserveDirty piggybacks on the dirty index
// the program already maintains: the tracker is a free profiler, and the
// dirty set it hands each epoch is exactly "which classes were modified
// this phase".
//
// A bag carries no positions, so the observation is conservatively
// positionless: each object dirties its class, and every edge whose subtree
// can reach that class loses its edge-level claims (ChildUnmodified,
// LastElementOnly) in the emitted pattern — a bag can never make the
// inferred pattern stronger than a walk would have. Objects whose type id
// has no catalog class return ErrClass.
func (o *Observer) ObserveDirty(objs ...ckpt.Checkpointable) error {
	for _, obj := range objs {
		cl := o.cat.classByTypeID(obj.CheckpointTypeID())
		if cl == nil {
			return fmt.Errorf("%w: no catalog class for type id %d (%T)",
				ErrClass, obj.CheckpointTypeID(), obj)
		}
		o.classDirty[cl.Name] = true
		o.bagDirty[cl.Name] = true
	}
	return nil
}

// visit walks an object; it reports whether the object's subtree contained
// any dirty object.
func (o *Observer) visit(class string, obj any) (bool, error) {
	cl := o.cat.class(class)
	b := o.cat.bindings[class]
	dirty := b.Info(obj).Modified()
	if dirty {
		o.classDirty[class] = true
	}

	for i, ch := range cl.Children {
		if i == cl.NextChild {
			continue
		}
		c := b.Child(obj, i)
		if c == nil {
			continue
		}
		key := class + "." + ch.Name
		eo := o.edges[key]
		target := o.cat.class(ch.Class)
		isList := ch.List || target.NextChild >= 0
		if eo == nil {
			eo = &edgeObs{list: isList}
			o.edges[key] = eo
		}
		if isList {
			sub, err := o.visitList(ch.Class, c, eo)
			if err != nil {
				return false, err
			}
			dirty = dirty || sub
			continue
		}
		sub, err := o.visit(ch.Class, c)
		if err != nil {
			return false, err
		}
		if sub {
			eo.dirtySubtree = true
		}
		dirty = dirty || sub
	}
	return dirty, nil
}

// visitList walks a list edge, tracking dirty positions.
func (o *Observer) visitList(elemClass string, head any, eo *edgeObs) (bool, error) {
	elem := o.cat.class(elemClass)
	b := o.cat.bindings[elemClass]
	nextIdx := elem.NextChild
	anyDirty := false
	c := head
	for c != nil {
		sub, err := o.visit(elemClass, c)
		if err != nil {
			return false, err
		}
		nx := b.Child(c, nextIdx)
		if sub {
			anyDirty = true
			eo.dirtySubtree = true
			if nx != nil {
				eo.dirtyNonFinal = true
			}
		}
		c = nx
	}
	return anyDirty, nil
}

// Pattern emits the strongest modification pattern consistent with the
// observations:
//
//   - a class never observed dirty is declared ClassUnmodified;
//   - a child edge whose subtree was never observed dirty — but whose
//     classes are dirty elsewhere — is declared ChildUnmodified;
//   - a list edge whose dirty elements only ever occurred at the final
//     position is declared LastElementOnly.
//
// An inferred pattern is a profile, not a proof: compile it with WithVerify
// in testing builds, or re-infer when the program changes.
func (o *Observer) Pattern(name string) *Pattern {
	p := &Pattern{
		Name:     name,
		Classes:  make(map[string]ClassMod),
		Children: make(map[string]ChildMod),
	}
	for _, cn := range o.cat.classNames() {
		if !o.classDirty[cn] {
			p.Classes[cn] = ClassUnmodified
		}
	}
	for key, eo := range o.edges {
		if o.edgeReachesBagDirty(key) {
			// A positionless (ObserveDirty) observation dirtied a class
			// this edge can reach; without positions, no edge-level claim
			// is sound.
			continue
		}
		switch {
		case !eo.dirtySubtree:
			// Only worth declaring if the subtree's classes are not
			// already clean everywhere; a redundant declaration is
			// harmless, but keep patterns minimal.
			if o.edgeSubtreeHasDirtyClass(key) {
				p.Children[key] = ChildUnmodified
			}
		case eo.list && !eo.dirtyNonFinal:
			p.Children[key] = LastElementOnly
		}
	}
	return p
}

// edgeSubtreeHasDirtyClass reports whether any class reachable through the
// edge was observed dirty (somewhere else in the structure).
func (o *Observer) edgeSubtreeHasDirtyClass(key string) bool {
	return o.edgeReaches(key, o.classDirty)
}

// edgeReachesBagDirty reports whether any class reachable through the edge
// was dirtied by a positionless ObserveDirty observation.
func (o *Observer) edgeReachesBagDirty(key string) bool {
	if len(o.bagDirty) == 0 {
		return false
	}
	return o.edgeReaches(key, o.bagDirty)
}

// edgeReaches reports whether a class in hit is reachable through the edge.
func (o *Observer) edgeReaches(key string, hit map[string]bool) bool {
	class, child, ok := splitEdge(key)
	if !ok {
		return false
	}
	cl := o.cat.class(class)
	ch := cl.childByName(child)
	if ch == nil {
		return false
	}
	seen := make(map[string]bool)
	var reach func(string) bool
	reach = func(name string) bool {
		if seen[name] {
			return false
		}
		seen[name] = true
		if hit[name] {
			return true
		}
		for _, sub := range o.cat.class(name).Children {
			if reach(sub.Class) {
				return true
			}
		}
		return false
	}
	return reach(ch.Class)
}
