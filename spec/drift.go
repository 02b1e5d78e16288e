package spec

import (
	"fmt"
	"sort"
)

// Contradictions cross-validates two views of one phase's modification
// behaviour: claim is a pattern someone asserts (hand-declared, or
// statically inferred from write-sets), evidence is the strongest pattern
// consistent with what was actually established (a static write-set via
// the inferrer, or a dynamic profile via Observer.Pattern). A
// contradiction is a claim strictly stronger than the evidence supports —
// the only direction that corrupts checkpoints, since a too-weak claim
// merely specializes less.
//
// Checked, per claim:
//
//   - ClassUnmodified, where the evidence says the class may be modified;
//   - ChildUnmodified on an edge, where the evidence neither declares the
//     edge at least as strongly nor declares every class reachable through
//     it unmodified (the evidence side minimizes redundant edge
//     declarations, so an all-clean subtree carries the same meaning);
//   - LastElementOnly on a list edge, where the evidence satisfies neither
//     the same restriction nor one of the stronger forms above.
//
// A nil evidence pattern carries no information and contradicts nothing; a
// nil claim claims nothing. Results are deterministic, sorted descriptions;
// empty means consistent.
func Contradictions(cat *Catalog, claim, evidence *Pattern) []string {
	if claim == nil || evidence == nil {
		return nil
	}
	var out []string
	evClean := computeClean(cat, evidence)

	classes := make([]string, 0, len(claim.Classes))
	for name := range claim.Classes {
		classes = append(classes, name)
	}
	sort.Strings(classes)
	for _, name := range classes {
		if claim.Classes[name] != ClassUnmodified {
			continue
		}
		if evidence.classMod(name) != ClassUnmodified {
			out = append(out, fmt.Sprintf(
				"class %s: claimed unmodified, but evidence %q shows modification",
				name, evidence.Name))
		}
	}

	edges := make([]string, 0, len(claim.Children))
	for key := range claim.Children {
		edges = append(edges, key)
	}
	sort.Strings(edges)
	for _, key := range edges {
		mod := claim.Children[key]
		if mod == Inherit {
			continue
		}
		class, child, ok := splitEdge(key)
		if !ok {
			continue
		}
		cl := cat.class(class)
		if cl == nil {
			continue
		}
		ch := cl.childByName(child)
		if ch == nil {
			continue
		}
		evMod := evidence.childMod(class, child)
		switch mod {
		case ChildUnmodified:
			if evMod != ChildUnmodified && !evClean[ch.Class] {
				out = append(out, fmt.Sprintf(
					"edge %s: claimed subtree unmodified, but evidence %q shows modification through it",
					key, evidence.Name))
			}
		case LastElementOnly:
			if evMod != LastElementOnly && evMod != ChildUnmodified && !evClean[ch.Class] {
				out = append(out, fmt.Sprintf(
					"edge %s: claimed last-element-only, but evidence %q shows non-final modification",
					key, evidence.Name))
			}
		}
	}
	return out
}
