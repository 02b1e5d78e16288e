package spec

import (
	"fmt"

	"ickpt/ckpt"
)

// recordAction is what the plan does with one object's local state.
type recordAction uint8

const (
	// recordAlways writes the record unconditionally (full mode).
	recordAlways recordAction = iota + 1
	// recordIfModified tests the modified flag (incremental, may-modify).
	recordIfModified
	// recordNever elides both the test and the record code: the pattern
	// declares the class unmodified in this phase.
	recordNever
)

// planNode is the specialized checkpoint code for one class.
type planNode struct {
	class   *Class
	binding Binding
	action  recordAction
	edges   []planEdge
}

// planEdge is the traversal of one (unpruned) child.
type planEdge struct {
	childIdx int
	name     string
	list     bool
	lastOnly bool
	node     *planNode
	// verifyOnly edges exist only in verify-mode plans: they traverse a
	// pruned subtree purely to check that every object in it is clean.
	verifyOnly bool
	// verifyNode, on lastOnly edges of verify-mode plans, checks the
	// non-final elements (and their subtrees) for undeclared mutations.
	verifyNode *planNode
}

// PlanStats summarizes what specialization removed, relative to the generic
// driver over the same class graph.
type PlanStats struct {
	// Nodes is the number of distinct class nodes in the plan.
	Nodes int
	// PrunedEdges counts child edges whose entire subtree was removed
	// because the pattern declares it unmodified.
	PrunedEdges int
	// ElidedTests counts classes whose modified-flag test (and record
	// code) was removed.
	ElidedTests int
	// LastOnlyLists counts list edges restricted to their final element.
	LastOnlyLists int
}

// Plan is a compiled, specialized checkpoint routine for one root class
// under one modification pattern. Execute it with [Plan.Execute], print it
// with [Plan.String], or export it as Go source with [GenerateGo].
type Plan struct {
	root      *planNode
	rootClass string
	pattern   string
	mode      ckpt.Mode
	verify    bool
	stats     PlanStats

	// byType maps every catalog class's TypeID to its binding, so
	// Plan.EmitOne can record an arbitrary object of the catalog — a
	// tracker's dirty set is a bag of objects, not a traversal, and may
	// contain classes the pattern pruned from the traversal plan.
	byType map[ckpt.TypeID]Binding
	// classes is the catalog's class list in sorted-name order, kept so
	// GenerateGo can render the EmitOne type-switch deterministically.
	classes []*Class
}

// CompileOption configures Compile.
type CompileOption interface {
	apply(*compileOptions)
}

type compileOptions struct {
	mode   ckpt.Mode
	verify bool
}

type compileOptionFunc func(*compileOptions)

func (f compileOptionFunc) apply(o *compileOptions) { f(o) }

// WithMode selects the checkpoint mode the plan is specialized for
// (default Incremental). A Full-mode plan records every object and ignores
// the modification pattern, but still benefits from structural
// specialization.
func WithMode(m ckpt.Mode) CompileOption {
	return compileOptionFunc(func(o *compileOptions) { o.mode = m })
}

// WithVerify makes the executed plan check the modified flag of objects the
// pattern declared unmodified and return ErrPatternViolated if one is found
// dirty. It converts an unsound pattern declaration from silent checkpoint
// corruption into an error, at the cost of reintroducing some tests; use it
// in testing builds.
func WithVerify() CompileOption {
	return compileOptionFunc(func(o *compileOptions) { o.verify = true })
}

// Compile specializes the checkpointing of structures rooted at class root
// with respect to (i) the structure declared by the catalog and (ii) the
// phase's modification pattern. pat may be nil: every class then keeps its
// modified-flag test, and only structural specialization (monomorphic
// traversal, list flattening) applies.
func Compile(cat *Catalog, root string, pat *Pattern, opts ...CompileOption) (*Plan, error) {
	co := compileOptions{mode: ckpt.Incremental}
	for _, o := range opts {
		o.apply(&co)
	}
	if cat.class(root) == nil {
		return nil, fmt.Errorf("%w: unknown root class %q", ErrClass, root)
	}
	if err := cat.validate(); err != nil {
		return nil, err
	}
	if err := pat.validate(cat); err != nil {
		return nil, err
	}
	patName := ""
	if pat != nil {
		patName = pat.Name
	}
	c := &compiler{
		cat:    cat,
		pat:    pat,
		mode:   co.mode,
		verify: co.verify,
		nodes:  make(map[string]*planNode),
		vnodes: make(map[string]*planNode),
		clean:  computeClean(cat, pat),
	}
	p := &Plan{
		rootClass: root,
		pattern:   patName,
		mode:      co.mode,
		verify:    co.verify,
	}
	p.root = c.build(root)
	p.stats = c.stats
	p.stats.Nodes = len(c.nodes)
	p.byType = make(map[ckpt.TypeID]Binding, len(cat.classes))
	for name, cl := range cat.classes {
		p.byType[cl.TypeID] = cat.bindings[name]
	}
	for _, name := range cat.classNames() {
		p.classes = append(p.classes, cat.classes[name])
	}
	return p, nil
}

// PatternName returns the name of the pattern the plan was compiled
// against, or "".
func (p *Plan) PatternName() string { return p.pattern }

// Stats returns what specialization removed.
func (p *Plan) Stats() PlanStats { return p.stats }

type compiler struct {
	cat    *Catalog
	pat    *Pattern
	mode   ckpt.Mode
	verify bool
	nodes  map[string]*planNode
	vnodes map[string]*planNode
	clean  map[string]bool
	stats  PlanStats
}

// buildVerify returns the (memoized) check-only node for class name: no
// records, no tests elided into silence — every object reached is checked
// for an undeclared modification, recursively.
func (c *compiler) buildVerify(name string) *planNode {
	if n, ok := c.vnodes[name]; ok {
		return n
	}
	cl := c.cat.class(name)
	n := &planNode{class: cl, binding: c.cat.bindings[name], action: recordNever}
	c.vnodes[name] = n
	for i, ch := range cl.Children {
		if i == cl.NextChild {
			continue
		}
		target := c.cat.class(ch.Class)
		n.edges = append(n.edges, planEdge{
			childIdx:   i,
			name:       ch.Name,
			list:       ch.List || target.NextChild >= 0,
			node:       c.buildVerify(ch.Class),
			verifyOnly: true,
		})
	}
	return n
}

// computeClean determines, for every class, whether the entire subtree
// reachable through it is declared unmodified by pat. It is a greatest
// fixpoint over the (possibly cyclic) class graph: start by believing every
// ClassUnmodified class clean, then repeatedly demote classes that reach a
// possibly-modified subtree, until stable.
func computeClean(cat *Catalog, pat *Pattern) map[string]bool {
	clean := make(map[string]bool, len(cat.classes))
	for name := range cat.classes {
		clean[name] = pat.classMod(name) == ClassUnmodified
	}
	for changed := true; changed; {
		changed = false
		for name, cl := range cat.classes {
			if !clean[name] {
				continue
			}
			for _, ch := range cl.Children {
				switch pat.childMod(name, ch.Name) {
				case ChildUnmodified:
					continue
				case LastElementOnly:
					clean[name] = false
				case Inherit:
					if !clean[ch.Class] {
						clean[name] = false
					}
				}
				if !clean[name] {
					changed = true
					break
				}
			}
		}
	}
	return clean
}

// build returns the (memoized) plan node for class name. Plans over
// recursive class graphs are cyclic; the node is memoized before its edges
// are filled.
func (c *compiler) build(name string) *planNode {
	if n, ok := c.nodes[name]; ok {
		return n
	}
	cl := c.cat.class(name)
	n := &planNode{class: cl, binding: c.cat.bindings[name]}
	c.nodes[name] = n

	switch {
	case c.mode == ckpt.Full:
		n.action = recordAlways
	case c.pat.classMod(name) == ClassUnmodified:
		n.action = recordNever
		c.stats.ElidedTests++
	default:
		n.action = recordIfModified
	}

	for i, ch := range cl.Children {
		if i == cl.NextChild {
			// The intra-list next pointer is walked by list loops,
			// never recursed.
			continue
		}
		mod := Inherit
		if c.mode != ckpt.Full {
			mod = c.pat.childMod(name, ch.Name)
		}
		target := c.cat.class(ch.Class)
		isList := ch.List || target.NextChild >= 0
		if mod == ChildUnmodified || (mod == Inherit && c.mode != ckpt.Full && c.clean[ch.Class]) {
			c.stats.PrunedEdges++
			if c.verify {
				// Keep a record-free traversal so unsound
				// declarations surface as ErrPatternViolated.
				n.edges = append(n.edges, planEdge{
					childIdx:   i,
					name:       ch.Name,
					list:       isList,
					node:       c.buildVerify(ch.Class),
					verifyOnly: true,
				})
			}
			continue
		}
		e := planEdge{
			childIdx: i,
			name:     ch.Name,
			list:     isList,
			lastOnly: mod == LastElementOnly,
			node:     c.build(ch.Class),
		}
		if e.lastOnly {
			c.stats.LastOnlyLists++
			if c.verify {
				e.verifyNode = c.buildVerify(ch.Class)
			}
		}
		n.edges = append(n.edges, e)
	}
	return n
}
