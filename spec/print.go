package spec

import (
	"fmt"
	"sort"
	"strings"
)

// String renders the plan as pseudo-code in the style of the paper's
// Figures 5 and 6, showing per class whether the modified-flag test was
// kept, which subtrees were pruned, and how lists are walked.
func (p *Plan) String() string {
	var b strings.Builder
	mode := p.mode.String()
	if p.pattern != "" {
		fmt.Fprintf(&b, "plan %s(%s) for pattern %q:\n", p.rootClass, mode, p.pattern)
	} else {
		fmt.Fprintf(&b, "plan %s(%s), structure only:\n", p.rootClass, mode)
	}
	printed := make(map[*planNode]bool)
	p.printNode(&b, p.root, 1, printed)
	s := p.stats
	fmt.Fprintf(&b, "— %d classes, %d tests elided, %d subtrees pruned, %d last-only lists\n",
		s.Nodes, s.ElidedTests, s.PrunedEdges, s.LastOnlyLists)
	return b.String()
}

func (p *Plan) printNode(b *strings.Builder, n *planNode, depth int, printed map[*planNode]bool) {
	indent := strings.Repeat("  ", depth)
	var action string
	switch n.action {
	case recordAlways:
		action = "record (unconditional)"
	case recordIfModified:
		action = "if modified { record }"
	case recordNever:
		action = "skip record (declared unmodified)"
	}
	fmt.Fprintf(b, "%s%s: %s\n", indent, n.class.Name, action)
	if printed[n] {
		if len(n.edges) > 0 {
			fmt.Fprintf(b, "%s  ... (recursive)\n", indent)
		}
		return
	}
	printed[n] = true

	pruned := p.prunedChildren(n)
	for _, name := range pruned {
		fmt.Fprintf(b, "%s  .%s -> pruned (subtree unmodified)\n", indent, name)
	}
	for i := range n.edges {
		e := &n.edges[i]
		switch {
		case e.list && e.lastOnly:
			fmt.Fprintf(b, "%s  .%s -> list, last element only:\n", indent, e.name)
		case e.list:
			fmt.Fprintf(b, "%s  .%s -> list:\n", indent, e.name)
		default:
			fmt.Fprintf(b, "%s  .%s ->\n", indent, e.name)
		}
		p.printNode(b, e.node, depth+2, printed)
	}
}

// prunedChildren lists the names of n's class children that have no edge in
// the plan (excluding the intra-list next pointer).
func (p *Plan) prunedChildren(n *planNode) []string {
	present := make(map[int]bool, len(n.edges))
	for i := range n.edges {
		present[n.edges[i].childIdx] = true
	}
	var out []string
	for i, ch := range n.class.Children {
		if i == n.class.NextChild || present[i] {
			continue
		}
		out = append(out, ch.Name)
	}
	return out
}

// Format renders the pattern as text, one declaration per line, classes
// and then child edges, each in sorted order:
//
//	pattern bta {
//	    class Attributes unmodified
//	    child Root.A last-only
//	}
func (p *Pattern) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pattern %s {\n", p.Name)
	for _, name := range sortedKeys(p.Classes) {
		if p.Classes[name] == ClassUnmodified {
			fmt.Fprintf(&b, "    class %s unmodified\n", name)
		}
	}
	for _, key := range sortedKeys(p.Children) {
		switch p.Children[key] {
		case ChildUnmodified:
			fmt.Fprintf(&b, "    child %s unmodified\n", key)
		case LastElementOnly:
			fmt.Fprintf(&b, "    child %s last-only\n", key)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
