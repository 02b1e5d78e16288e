package difftest

import (
	"fmt"
	"math/rand"

	"ickpt/ckpt"
	"ickpt/ckpt/parfold"
	"ickpt/internal/synth"
	"ickpt/reflectckpt"
	"ickpt/spec"
)

// SynthTrace builds a trace over the paper's synthetic workload: a base full
// checkpoint followed by rounds of seeded Mutate + incremental checkpoint.
// The modification pattern doubles as the specialization pattern for the
// plan and codegen engines, so the trace exercises the soundness of the
// declared pattern along with the engines themselves.
func SynthTrace(shape synth.Shape, mod synth.ModPattern, rounds int, seed int64) Trace {
	name := fmt.Sprintf("synth-%s-%s", shape, mod)
	return Trace{Name: name, Build: func() (*Population, error) {
		w := synth.Build(shape)
		pat := mod.SpecPattern(shape.Kind)
		planIncr, err := synth.CompilePlan(shape.Kind, pat, spec.WithMode(ckpt.Incremental))
		if err != nil {
			return nil, err
		}
		planFull, err := synth.CompilePlan(shape.Kind, nil, spec.WithMode(ckpt.Full))
		if err != nil {
			return nil, err
		}
		genKey := synth.GenKey(shape.Kind, pat.Name)
		gen, ok := synth.Generated(genKey)
		if !ok {
			return nil, fmt.Errorf("no generated routine %q", genKey)
		}
		genEmit, ok := synth.GeneratedEmit(genKey)
		if !ok {
			return nil, fmt.Errorf("no generated EmitOne %q", genKey)
		}
		reflectEng := reflectckpt.NewEngine()

		rng := rand.New(rand.NewSource(seed))
		return &Population{
			Roots:    w.Roots(),
			Domain:   w.Domain,
			Registry: synth.Registry(),
			Replay: func(take Take) error {
				if err := take(ckpt.Full, ""); err != nil {
					return err
				}
				for r := 0; r < rounds; r++ {
					w.Mutate(rng, mod)
					if err := take(ckpt.Incremental, ""); err != nil {
						return err
					}
				}
				return nil
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
					NewFold: func(mode ckpt.Mode, _ string) parfold.FoldFunc {
						plan := planIncr
						if mode == ckpt.Full {
							plan = planFull
						}
						return plan.Fold
					},
					NewEmit: func(string) ckpt.EmitOne { return planIncr.EmitOne },
				},
				// Generated routines are incremental-only; the base full
				// checkpoint falls back to the generic driver.
				{Name: "codegen",
					NewFold: func(mode ckpt.Mode, _ string) parfold.FoldFunc {
						if mode != ckpt.Incremental {
							return nil
						}
						return parfold.FoldEmitter(gen)
					},
					NewEmit: func(string) ckpt.EmitOne { return genEmit },
				},
			},
		}, nil
	}}
}
