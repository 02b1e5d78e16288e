package analysis

import (
	"ickpt/ckpt"
	"ickpt/spec"
)

// PatternSE declares the side-effect phase's modification pattern: only
// SEEntry objects are written; the binding-time and evaluation-time
// subtrees are untouched.
func PatternSE() *spec.Pattern {
	return &spec.Pattern{
		Name: "se",
		Classes: map[string]spec.ClassMod{
			"Attributes": spec.ClassUnmodified,
			"BTEntry":    spec.ClassUnmodified,
			"BT":         spec.ClassUnmodified,
			"ETEntry":    spec.ClassUnmodified,
			"ET":         spec.ClassUnmodified,
		},
	}
}

// PatternBTA declares the binding-time phase's modification pattern: the
// phase reads, but does not modify, the side-effect results, and writes
// only the BT annotations (the paper's Section 4.2 declarations).
func PatternBTA() *spec.Pattern {
	return &spec.Pattern{
		Name: "bta",
		Classes: map[string]spec.ClassMod{
			"Attributes": spec.ClassUnmodified,
			"SEEntry":    spec.ClassUnmodified,
			"BTEntry":    spec.ClassUnmodified,
			"ETEntry":    spec.ClassUnmodified,
			"ET":         spec.ClassUnmodified,
		},
	}
}

// PatternETA declares the evaluation-time phase's modification pattern:
// only the ET annotations are written.
func PatternETA() *spec.Pattern {
	return &spec.Pattern{
		Name: "eta",
		Classes: map[string]spec.ClassMod{
			"Attributes": spec.ClassUnmodified,
			"SEEntry":    spec.ClassUnmodified,
			"BTEntry":    spec.ClassUnmodified,
			"BT":         spec.ClassUnmodified,
			"ETEntry":    spec.ClassUnmodified,
		},
	}
}

// CompilePlan compiles the specialized plan for the Attributes structure
// under pat (nil for structure-only specialization).
func CompilePlan(pat *spec.Pattern, opts ...spec.CompileOption) (*spec.Plan, error) {
	return spec.Compile(Catalog(), "Attributes", pat, opts...)
}

// generatedFuncs is the registry of generated specialized routines, keyed
// by phase name and populated by init functions in the generated files.
var generatedFuncs = make(map[string]func(ckpt.Checkpointable, *ckpt.Emitter))

// registerGenerated is called from generated code.
func registerGenerated(key string, fn func(ckpt.Checkpointable, *ckpt.Emitter)) {
	if _, dup := generatedFuncs[key]; dup {
		panic("analysis: generated routine registered twice: " + key)
	}
	generatedFuncs[key] = fn
}

// Generated looks up a generated specialized routine by phase key ("struct",
// "se", "bta", "eta").
func Generated(key string) (func(ckpt.Checkpointable, *ckpt.Emitter), bool) {
	fn, ok := generatedFuncs[key]
	return fn, ok
}

// generatedEmitFuncs is the registry of generated single-object emit
// routines (ckpt.EmitOne), keyed by phase name like generatedFuncs.
var generatedEmitFuncs = make(map[string]ckpt.EmitOne)

// registerGeneratedEmit is called from generated code.
func registerGeneratedEmit(key string, fn ckpt.EmitOne) {
	if _, dup := generatedEmitFuncs[key]; dup {
		panic("analysis: generated EmitOne registered twice: " + key)
	}
	generatedEmitFuncs[key] = fn
}

// GeneratedEmit looks up a generated single-object emit routine by phase
// key, for encoding a tracker's dirty set through the codegen engine.
func GeneratedEmit(key string) (ckpt.EmitOne, bool) {
	fn, ok := generatedEmitFuncs[key]
	return fn, ok
}
