package harness

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"ickpt/ckpt"
	"ickpt/ckpt/parfold"
	"ickpt/internal/synth"
	"ickpt/reflectckpt"
	"ickpt/spec"
)

// Engine selects the execution tier a checkpoint runs on. The ladder
// reproduces the paper's VM axis:
//
//	reflect  — run-time reflection traversal   (≈ JDK 1.2 JIT row)
//	virtual  — interface-dispatch generic code (≈ HotSpot / Harissa row)
//	plan     — compiled specialization plan    (run-time specialization)
//	codegen  — generated specialized Go        (≈ compiled specialized code)
type Engine string

// Execution tiers.
const (
	EngineReflect Engine = "reflect"
	EngineVirtual Engine = "virtual"
	EnginePlan    Engine = "plan"
	EngineCodegen Engine = "codegen"
)

// SynthConfig describes one synthetic measurement cell.
type SynthConfig struct {
	// Shape is the workload's static shape.
	Shape synth.Shape
	// Mod is the mutation behaviour applied before every checkpoint.
	Mod synth.ModPattern
	// Mode is Full or Incremental.
	Mode ckpt.Mode
	// Engine is the execution tier.
	Engine Engine
	// Specialized selects the pattern-specialized routine for plan and
	// codegen engines; when false, the structure-only specialization is
	// used. Ignored by reflect and virtual.
	Specialized bool
	// Seed feeds the deterministic mutation driver.
	Seed int64
	// Repetitions is the number of measured checkpoints (median
	// reported); Warmup checkpoints run first, unmeasured.
	Repetitions int
	// Warmup is the number of unmeasured leading checkpoints.
	Warmup int
	// Traversal measures a quiescent checkpoint (no mutations): the cost
	// of pure traversal, the limit specialization can remove.
	Traversal bool
	// TouchAll marks every object (structures included) modified before
	// each checkpoint, making full and incremental record identical
	// object sets; it overrides Mod.
	TouchAll bool
}

// Measurement is the result of one cell.
type Measurement struct {
	// NsPerCheckpoint is the median wall time of one whole-population
	// checkpoint.
	NsPerCheckpoint float64
	// Bytes is the body size of the last measured checkpoint.
	Bytes int
	// Stats are the traversal counters of the last measured checkpoint.
	Stats ckpt.Stats
	// Modified is the number of elements dirtied before each checkpoint.
	Modified int
}

// MsString renders the measurement's time in milliseconds.
func (m Measurement) MsString() string {
	return fmt.Sprintf("%.3f", m.NsPerCheckpoint/1e6)
}

// MeasureSynth builds the workload, installs the configured engine, and
// measures the median checkpoint time under the mutation pattern.
func MeasureSynth(cfg SynthConfig) (Measurement, error) {
	if cfg.Repetitions <= 0 {
		cfg.Repetitions = 5
	}
	if cfg.Mode == 0 {
		cfg.Mode = ckpt.Incremental
	}
	w := synth.Build(cfg.Shape)
	if err := w.Drain(); err != nil {
		return Measurement{}, err
	}
	fold, err := NewFold(cfg)
	if err != nil {
		return Measurement{}, err
	}
	roots := w.Roots()
	wr := ckpt.NewWriter()

	rng := rand.New(rand.NewSource(cfg.Seed))
	var (
		times    []float64
		last     Measurement
		modified int
	)
	total := cfg.Warmup + cfg.Repetitions
	for i := 0; i < total; i++ {
		switch {
		case cfg.Traversal:
		case cfg.TouchAll:
			w.TouchAll()
			modified = w.Objects()
		default:
			modified = w.Mutate(rng, cfg.Mod)
		}
		// Only the fold over the roots is timed; Start and Finish are
		// outside the clock, as in the paper's tables.
		wr.Start(cfg.Mode)
		t0 := time.Now()
		for _, r := range roots {
			if err := fold(wr, r); err != nil {
				return Measurement{}, err
			}
		}
		dt := time.Since(t0)
		body, stats, err := wr.Finish()
		if err != nil {
			return Measurement{}, err
		}
		if i >= cfg.Warmup {
			times = append(times, float64(dt.Nanoseconds()))
			last = Measurement{Bytes: len(body), Stats: stats, Modified: modified}
		}
	}
	last.NsPerCheckpoint = median(times)
	return last, nil
}

// NewFold returns the configured engine's traversal routine, the value the
// writer loops over the roots. It is exported for the root benchmark suite.
func NewFold(cfg SynthConfig) (parfold.FoldFunc, error) {
	switch cfg.Engine {
	case EngineVirtual, "":
		return (*ckpt.Writer).Checkpoint, nil
	case EngineReflect:
		return reflectckpt.NewEngine().Checkpoint, nil
	case EnginePlan:
		plan, err := synth.CompilePlan(cfg.Shape.Kind, patternFor(cfg), spec.WithMode(cfg.Mode))
		if err != nil {
			return nil, err
		}
		return plan.Fold, nil
	case EngineCodegen:
		if cfg.Mode != ckpt.Incremental {
			return nil, fmt.Errorf("harness: codegen engine supports incremental mode only")
		}
		name := ""
		if pat := patternFor(cfg); pat != nil {
			name = pat.Name
		}
		key := synth.GenKey(cfg.Shape.Kind, name)
		fn, ok := synth.Generated(key)
		if !ok {
			return nil, fmt.Errorf("harness: no generated routine %q", key)
		}
		return parfold.FoldEmitter(fn), nil
	default:
		return nil, fmt.Errorf("harness: unknown engine %q", cfg.Engine)
	}
}

// patternFor returns the declared specialization pattern for the cell, or
// nil for structure-only.
func patternFor(cfg SynthConfig) *spec.Pattern {
	if !cfg.Specialized {
		return nil
	}
	return cfg.Mod.SpecPattern(cfg.Shape.Kind)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// Options are shared experiment parameters.
type Options struct {
	// Structures is the population size (the paper uses 20000).
	Structures int
	// Repetitions and Warmup control timing.
	Repetitions int
	Warmup      int
	// Seed feeds the mutation driver.
	Seed int64
}

// withDefaults fills unset fields with paper-faithful values.
func (o Options) withDefaults() Options {
	if o.Structures == 0 {
		o.Structures = 20000
	}
	if o.Repetitions == 0 {
		o.Repetitions = 5
	}
	if o.Warmup == 0 {
		o.Warmup = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// speedup formats a ratio baseline/other.
func speedup(baseline, other float64) string {
	if other == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", baseline/other)
}
