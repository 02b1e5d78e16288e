package difftest

import (
	"fmt"

	"ickpt/ckpt"
	"ickpt/ckpt/parfold"
	"ickpt/internal/interp"
	"ickpt/reflectckpt"
)

// The interpreter workload (internal/interp) is the hostile trace family:
// a tree-walking interpreter whose whole runtime state — environments,
// closures, cons cells (cyclic via set-cdr!), mutable boxes — checkpoints
// as one Machine root over a flat heap table, with allocation churn on
// every round. It stresses exactly what the synthetic and editor
// populations cannot: tagged-union payloads, a single root whose record
// changes every epoch, and mid-replay allocations that the dirty
// strategies must absorb through Domain.Adopt without degrading.
//
// Engine notes:
//   - reflect drives the heap through the SelfDescribed fallback — the
//     union-shaped records cannot be expressed as struct-tag schemas, so
//     the engine delegates to each object's own Record/Fold (the documented
//     production behaviour of reflection systems on opaque classes);
//   - plan has no entry points at all: the spec catalog cannot describe
//     tagged unions or the machine's variable-length heap table, so the
//     plan engine runs the generic fallback the EngineSpec contract
//     defines for exactly this case;
//   - codegen runs the hand-written specialized routines in cmd/ckptgen's
//     output shape (interp.CheckpointIncr / interp.EmitOne).

// interpSetup builds a machine over a generated program.
func interpSetup(size int, churn float64, seed int64) (*Population, *interp.Machine, error) {
	domain := ckpt.NewDomain()
	m, err := interp.NewMachine(domain, interp.GenProgram(seed, size, churn), 0)
	if err != nil {
		return nil, nil, err
	}
	pop := &Population{
		Roots:    []ckpt.Checkpointable{m},
		Domain:   domain,
		Registry: interp.NewRegistry(),
		Engines:  interpEngines(),
	}
	return pop, m, nil
}

func interpEngines() []EngineSpec {
	reflectEng := reflectckpt.NewEngine()
	return []EngineSpec{
		{Name: "virtual"},
		{Name: "reflect",
			NewFold: func(ckpt.Mode, string) parfold.FoldFunc {
				return reflectEng.Checkpoint
			},
			NewEmit: func(string) ckpt.EmitOne { return reflectEng.EmitOne },
		},
		{Name: "plan"},
		{Name: "codegen",
			NewFold: func(mode ckpt.Mode, _ string) parfold.FoldFunc {
				if mode != ckpt.Incremental {
					return nil
				}
				return parfold.FoldEmitter(interp.CheckpointIncr)
			},
			NewEmit: func(string) ckpt.EmitOne { return interp.EmitOne },
		},
	}
}

// InterpTrace builds a trace over the interpreter workload: a generated
// program of size top-level forms at the given allocation churn, a base full
// checkpoint, then rounds of stepsPerRound evaluation steps each closed by
// an incremental checkpoint.
func InterpTrace(size int, churn float64, rounds, stepsPerRound int, seed int64) Trace {
	name := fmt.Sprintf("interp-s%d-c%d", size, int(churn*100))
	return Trace{Name: name, Build: func() (*Population, error) {
		pop, m, err := interpSetup(size, churn, seed)
		if err != nil {
			return nil, err
		}
		pop.Replay = func(take Take) error {
			if err := take(ckpt.Full, ""); err != nil {
				return err
			}
			for r := 0; r < rounds; r++ {
				m.Run(stepsPerRound)
				if err := take(ckpt.Incremental, ""); err != nil {
					return err
				}
				if m.Done() {
					break
				}
			}
			return nil
		}
		return pop, nil
	}}
}

// InterpRewindTrace is the time-travel variant: evaluation rounds closed by
// a Full checkpoint every fullEvery rounds (the first included) and
// incrementals otherwise, giving RewindTo real chains over a heap whose
// object population grows mid-history.
func InterpRewindTrace(size int, churn float64, rounds, stepsPerRound, fullEvery int, seed int64) Trace {
	name := fmt.Sprintf("interp-rewind-s%d-c%d-r%d", size, int(churn*100), rounds)
	return Trace{Name: name, Build: func() (*Population, error) {
		pop, m, err := interpSetup(size, churn, seed)
		if err != nil {
			return nil, err
		}
		pop.Replay = func(take Take) error {
			for r := 0; r < rounds; r++ {
				mode := ckpt.Incremental
				if r%fullEvery == 0 {
					mode = ckpt.Full
				}
				m.Run(stepsPerRound)
				if err := take(mode, ""); err != nil {
					return err
				}
				if m.Done() {
					return nil
				}
			}
			return nil
		}
		return pop, nil
	}}
}
