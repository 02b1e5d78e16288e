package difftest

import (
	"fmt"

	"ickpt/ckpt"
	"ickpt/ckpt/parfold"
	"ickpt/internal/analysis"
	"ickpt/internal/harness"
	"ickpt/reflectckpt"
	"ickpt/spec"
)

// AnalysisTrace builds a trace over the minic analysis engine: the base full
// checkpoint, then the three analysis phases run to fixpoint with one
// incremental checkpoint per iteration — the paper's actual workload. The
// plan and codegen engines use the per-phase specialized routines (se, bta,
// eta), so every phase's declared modification pattern is differentially
// checked against what the generic driver records.
func AnalysisTrace(aw harness.AnalysisWorkload, scale int) Trace {
	name := fmt.Sprintf("analysis-%s-x%d", aw.Name, scale)
	return Trace{Name: name, Build: func() (*Population, error) {
		e, div, err := aw.NewEngine(scale)
		if err != nil {
			return nil, err
		}
		planFull, err := analysis.CompilePlan(nil, spec.WithMode(ckpt.Full))
		if err != nil {
			return nil, err
		}
		phasePlans := make(map[string]*spec.Plan, 3)
		phaseGen := make(map[string]func(ckpt.Checkpointable, *ckpt.Emitter), 3)
		for phase, pat := range map[string]*spec.Pattern{
			analysis.PhaseSE:  analysis.PatternSE(),
			analysis.PhaseBTA: analysis.PatternBTA(),
			analysis.PhaseETA: analysis.PatternETA(),
		} {
			p, err := analysis.CompilePlan(pat, spec.WithMode(ckpt.Incremental))
			if err != nil {
				return nil, err
			}
			phasePlans[phase] = p
			fn, ok := analysis.Generated(phase)
			if !ok {
				return nil, fmt.Errorf("no generated routine for phase %q", phase)
			}
			phaseGen[phase] = fn
		}
		reflectEng := reflectckpt.NewEngine()

		return &Population{
			Roots:    e.Roots(),
			Domain:   e.Domain,
			Registry: analysis.Registry(),
			Replay: func(take Take) error {
				// Base full checkpoint consumes the creation flags, so the
				// per-phase patterns hold from the first iteration.
				if err := take(ckpt.Full, ""); err != nil {
					return err
				}
				ck := func(phase string, _ int) error {
					return take(ckpt.Incremental, phase)
				}
				if _, err := e.RunSE(ck); err != nil {
					return err
				}
				if _, err := e.RunBTA(div, ck); err != nil {
					return err
				}
				_, err := e.RunETA(ck)
				return err
			},
			Engines: []EngineSpec{
				{Name: "virtual"},
				{Name: "reflect",
					NewFold: func(ckpt.Mode, string) parfold.FoldFunc {
						return reflectEng.Checkpoint
					},
					NewEmit: func(string) ckpt.EmitOne { return reflectEng.EmitOne },
				},
				{Name: "plan",
					NewFold: func(mode ckpt.Mode, phase string) parfold.FoldFunc {
						plan := planFull
						if mode == ckpt.Incremental {
							plan = phasePlans[phase]
							if plan == nil {
								return nil
							}
						}
						return plan.Fold
					},
					NewEmit: func(phase string) ckpt.EmitOne {
						if p := phasePlans[phase]; p != nil {
							return p.EmitOne
						}
						return nil
					},
				},
				{Name: "codegen",
					NewFold: func(mode ckpt.Mode, phase string) parfold.FoldFunc {
						fn := phaseGen[phase]
						if mode != ckpt.Incremental || fn == nil {
							return nil
						}
						return parfold.FoldEmitter(fn)
					},
					NewEmit: func(phase string) ckpt.EmitOne {
						fn, _ := analysis.GeneratedEmit(phase)
						return fn // nil for unknown phases: generic fallback
					},
				},
			},
		}, nil
	}}
}
