package harness

import (
	"fmt"

	"ickpt/ckpt"
	"ickpt/internal/synth"
)

// Paper parameter grids.
var (
	percents = []int{100, 50, 25}
	listLens = []int{1, 5}
	kinds    = []synth.Kind{synth.Ints1, synth.Ints10}
)

// Fig7 reproduces Figure 7: incremental vs full checkpointing speedup on
// the generic (virtual) engine, as the fraction of modified objects and the
// per-object record cost vary.
func Fig7(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      "fig7",
		Title:   "Incremental checkpointing speedup over full checkpointing (virtual engine)",
		Columns: []string{"workload", "100%", "50%", "25%"},
		Notes: []string{
			fmt.Sprintf("%d structures x 5 lists; all lists modifiable; speedup = t(full)/t(incremental)", opts.Structures),
		},
	}
	for _, kind := range kinds {
		for _, l := range listLens {
			row := []string{fmt.Sprintf("ints=%d len=%d", int(kind), l)}
			for _, pct := range percents {
				shape := synth.Shape{Structures: opts.Structures, ListLen: l, Kind: kind}
				mod := synth.ModPattern{Percent: pct, ModifiableLists: synth.NumLists}
				full, err := MeasureSynth(SynthConfig{
					Shape: shape, Mod: mod, Mode: ckpt.Full, Engine: EngineVirtual,
					Seed: opts.Seed, Repetitions: opts.Repetitions, Warmup: opts.Warmup,
				})
				if err != nil {
					return nil, err
				}
				incr, err := MeasureSynth(SynthConfig{
					Shape: shape, Mod: mod, Mode: ckpt.Incremental, Engine: EngineVirtual,
					Seed: opts.Seed, Repetitions: opts.Repetitions, Warmup: opts.Warmup,
				})
				if err != nil {
					return nil, err
				}
				row = append(row, speedup(full.NsPerCheckpoint, incr.NsPerCheckpoint))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// Fig8 reproduces Figure 8: specialization with respect to the structure
// only (all tests kept, dispatch removed), speedup over unspecialized
// incremental checkpointing.
func Fig8(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      "fig8",
		Title:   "Structure-only specialization speedup over incremental (codegen vs virtual)",
		Columns: []string{"workload", "100%", "50%", "25%"},
		Notes: []string{
			fmt.Sprintf("%d structures; all lists modifiable; specialized code keeps every modified-flag test", opts.Structures),
		},
	}
	for _, kind := range kinds {
		for _, l := range listLens {
			row := []string{fmt.Sprintf("ints=%d len=%d", int(kind), l)}
			for _, pct := range percents {
				shape := synth.Shape{Structures: opts.Structures, ListLen: l, Kind: kind}
				mod := synth.ModPattern{Percent: pct, ModifiableLists: synth.NumLists}
				base, err := MeasureSynth(SynthConfig{
					Shape: shape, Mod: mod, Engine: EngineVirtual,
					Seed: opts.Seed, Repetitions: opts.Repetitions, Warmup: opts.Warmup,
				})
				if err != nil {
					return nil, err
				}
				specd, err := MeasureSynth(SynthConfig{
					Shape: shape, Mod: mod, Engine: EngineCodegen, Specialized: false,
					Seed: opts.Seed, Repetitions: opts.Repetitions, Warmup: opts.Warmup,
				})
				if err != nil {
					return nil, err
				}
				row = append(row, speedup(base.NsPerCheckpoint, specd.NsPerCheckpoint))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// Fig9 reproduces Figure 9: specialization with respect to the structure
// and the set of lists that may contain modified elements (lists of length
// 5).
func Fig9(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      "fig9",
		Title:   "Specialization w.r.t. structure + modifiable-list set, speedup over incremental",
		Columns: []string{"workload", "lists=1", "lists=3", "lists=5"},
		Notes: []string{
			fmt.Sprintf("%d structures, list length 5; unmodifiable lists pruned from the traversal", opts.Structures),
		},
	}
	for _, kind := range kinds {
		for _, pct := range percents {
			row := []string{fmt.Sprintf("ints=%d %d%%", int(kind), pct)}
			for _, m := range synth.ModifiableListCounts {
				shape := synth.Shape{Structures: opts.Structures, ListLen: 5, Kind: kind}
				mod := synth.ModPattern{Percent: pct, ModifiableLists: m}
				base, err := MeasureSynth(SynthConfig{
					Shape: shape, Mod: mod, Engine: EngineVirtual,
					Seed: opts.Seed, Repetitions: opts.Repetitions, Warmup: opts.Warmup,
				})
				if err != nil {
					return nil, err
				}
				specd, err := MeasureSynth(SynthConfig{
					Shape: shape, Mod: mod, Engine: EngineCodegen, Specialized: true,
					Seed: opts.Seed, Repetitions: opts.Repetitions, Warmup: opts.Warmup,
				})
				if err != nil {
					return nil, err
				}
				row = append(row, speedup(base.NsPerCheckpoint, specd.NsPerCheckpoint))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// Fig10 reproduces Figure 10: specialization with respect to the structure
// and the positions at which modified objects may occur (only the last
// element of each modifiable list).
func Fig10(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      "fig10",
		Title:   "Specialization w.r.t. structure + last-element-only positions, speedup over incremental",
		Columns: []string{"workload", "lists=1", "lists=3", "lists=5"},
		Notes: []string{
			fmt.Sprintf("%d structures; only the final element of each modifiable list may change", opts.Structures),
		},
	}
	for _, kind := range kinds {
		for _, l := range listLens {
			for _, pct := range percents {
				row := []string{fmt.Sprintf("ints=%d len=%d %d%%", int(kind), l, pct)}
				for _, m := range synth.ModifiableListCounts {
					shape := synth.Shape{Structures: opts.Structures, ListLen: l, Kind: kind}
					mod := synth.ModPattern{Percent: pct, ModifiableLists: m, LastOnly: true}
					base, err := MeasureSynth(SynthConfig{
						Shape: shape, Mod: mod, Engine: EngineVirtual,
						Seed: opts.Seed, Repetitions: opts.Repetitions, Warmup: opts.Warmup,
					})
					if err != nil {
						return nil, err
					}
					specd, err := MeasureSynth(SynthConfig{
						Shape: shape, Mod: mod, Engine: EngineCodegen, Specialized: true,
						Seed: opts.Seed, Repetitions: opts.Repetitions, Warmup: opts.Warmup,
					})
					if err != nil {
						return nil, err
					}
					row = append(row, speedup(base.NsPerCheckpoint, specd.NsPerCheckpoint))
				}
				t.AddRow(row...)
			}
		}
	}
	return t, nil
}

// Fig11 reproduces Figure 11: the specialized code's speedup over the
// unspecialized implementation under two execution tiers of the generic
// code — (a) the reflection tier, (b) the interface-dispatch tier —
// demonstrating that specialization and better generic execution are
// complementary.
func Fig11(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      "fig11",
		Title:   "Specialized vs unspecialized under two generic-execution tiers (length 5, last-only)",
		Columns: []string{"tier / workload", "lists=1", "lists=3", "lists=5"},
		Notes: []string{
			"tier=reflect ~ paper's JDK 1.2 panel (a); tier=virtual ~ JDK 1.2 + HotSpot panel (b)",
			fmt.Sprintf("%d structures, list length 5, last-element-only positions", opts.Structures),
		},
	}
	for _, tier := range []Engine{EngineReflect, EngineVirtual} {
		for _, kind := range kinds {
			for _, pct := range percents {
				row := []string{fmt.Sprintf("%s ints=%d %d%%", tier, int(kind), pct)}
				for _, m := range synth.ModifiableListCounts {
					shape := synth.Shape{Structures: opts.Structures, ListLen: 5, Kind: kind}
					mod := synth.ModPattern{Percent: pct, ModifiableLists: m, LastOnly: true}
					base, err := MeasureSynth(SynthConfig{
						Shape: shape, Mod: mod, Engine: tier,
						Seed: opts.Seed, Repetitions: opts.Repetitions, Warmup: opts.Warmup,
					})
					if err != nil {
						return nil, err
					}
					specd, err := MeasureSynth(SynthConfig{
						Shape: shape, Mod: mod, Engine: EngineCodegen, Specialized: true,
						Seed: opts.Seed, Repetitions: opts.Repetitions, Warmup: opts.Warmup,
					})
					if err != nil {
						return nil, err
					}
					row = append(row, speedup(base.NsPerCheckpoint, specd.NsPerCheckpoint))
				}
				t.AddRow(row...)
			}
		}
	}
	return t, nil
}

// Table2 reproduces Table 2: absolute checkpoint construction times for the
// unspecialized implementation on both generic tiers and the specialized
// implementation on both specialization backends; 10 integers per element,
// lists of length 5.
func Table2(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      "table2",
		Title:   "Checkpoint construction time (ms); 10 ints per element, length-5 lists",
		Columns: []string{"engine / possibly-mod lists", "100%", "50%", "25%"},
		Notes: []string{
			"reflect/virtual run the unspecialized driver; plan/codegen run the pattern-specialized routine",
			fmt.Sprintf("%d structures", opts.Structures),
		},
	}
	cells := []struct {
		engine      Engine
		specialized bool
	}{
		{EngineReflect, false},
		{EngineVirtual, false},
		{EnginePlan, true},
		{EngineCodegen, true},
	}
	for _, c := range cells {
		for _, m := range []int{1, 5} {
			row := []string{fmt.Sprintf("%s lists=%d", c.engine, m)}
			for _, pct := range percents {
				shape := synth.Shape{Structures: opts.Structures, ListLen: 5, Kind: synth.Ints10}
				mod := synth.ModPattern{Percent: pct, ModifiableLists: m}
				meas, err := MeasureSynth(SynthConfig{
					Shape: shape, Mod: mod, Engine: c.engine, Specialized: c.specialized,
					Seed: opts.Seed, Repetitions: opts.Repetitions, Warmup: opts.Warmup,
				})
				if err != nil {
					return nil, err
				}
				row = append(row, meas.MsString())
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// AblationDispatch isolates the dispatch-elimination benefit: with every
// object modified nothing can be pruned or skipped, so the difference
// between tiers is pure per-object mechanism cost.
func AblationDispatch(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      "ablation-dispatch",
		Title:   "Per-object mechanism cost: all objects modified, structure-only specialization",
		Columns: []string{"engine", "time (ms)", "vs virtual"},
		Notes:   []string{fmt.Sprintf("%d structures, length 5, 10 ints, 100%% modified", opts.Structures)},
	}
	shape := synth.Shape{Structures: opts.Structures, ListLen: 5, Kind: synth.Ints10}
	mod := synth.ModPattern{Percent: 100, ModifiableLists: synth.NumLists}
	var virtual float64
	for _, engine := range []Engine{EngineReflect, EngineVirtual, EnginePlan, EngineCodegen} {
		meas, err := MeasureSynth(SynthConfig{
			Shape: shape, Mod: mod, Engine: engine, Specialized: false,
			Seed: opts.Seed, Repetitions: opts.Repetitions, Warmup: opts.Warmup,
		})
		if err != nil {
			return nil, err
		}
		if engine == EngineVirtual {
			virtual = meas.NsPerCheckpoint
		}
		rel := "-"
		if virtual > 0 {
			rel = speedup(virtual, meas.NsPerCheckpoint)
		}
		t.AddRow(string(engine), meas.MsString(), rel)
	}
	return t, nil
}

// AblationFlags measures the cost of maintaining and testing the modified
// flags when they never pay off: every object (roots included) is modified,
// so incremental checkpointing records exactly the full set and pays the
// flag tests and resets on top. The paper reports this overhead as
// negligible (Figure 7: even at 100% modified "the added cost is
// negligible").
func AblationFlags(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      "ablation-flags",
		Title:   "Modified-flag overhead with every object modified (virtual engine)",
		Columns: []string{"workload", "full (ms)", "incremental (ms)", "incr/full"},
	}
	for _, kind := range kinds {
		for _, l := range listLens {
			shape := synth.Shape{Structures: opts.Structures, ListLen: l, Kind: kind}
			full, err := MeasureSynth(SynthConfig{
				Shape: shape, TouchAll: true, Mode: ckpt.Full, Engine: EngineVirtual,
				Seed: opts.Seed, Repetitions: opts.Repetitions, Warmup: opts.Warmup,
			})
			if err != nil {
				return nil, err
			}
			incr, err := MeasureSynth(SynthConfig{
				Shape: shape, TouchAll: true, Engine: EngineVirtual,
				Seed: opts.Seed, Repetitions: opts.Repetitions, Warmup: opts.Warmup,
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(
				fmt.Sprintf("ints=%d len=%d", int(kind), l),
				full.MsString(), incr.MsString(),
				speedup(incr.NsPerCheckpoint, full.NsPerCheckpoint),
			)
		}
	}
	return t, nil
}

// AblationDepth tests the paper's claim that specialization speedup grows
// with the complexity (depth) of the structure: last-element-only
// specialization over increasing list lengths.
func AblationDepth(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      "ablation-depth",
		Title:   "Speedup vs list length (last-element-only, 5 modifiable lists, 100%)",
		Columns: []string{"list length", "virtual (ms)", "codegen (ms)", "speedup"},
	}
	for _, l := range []int{1, 2, 5, 10, 20} {
		shape := synth.Shape{Structures: opts.Structures, ListLen: l, Kind: synth.Ints1}
		mod := synth.ModPattern{Percent: 100, ModifiableLists: synth.NumLists, LastOnly: true}
		base, err := MeasureSynth(SynthConfig{
			Shape: shape, Mod: mod, Engine: EngineVirtual,
			Seed: opts.Seed, Repetitions: opts.Repetitions, Warmup: opts.Warmup,
		})
		if err != nil {
			return nil, err
		}
		specd, err := MeasureSynth(SynthConfig{
			Shape: shape, Mod: mod, Engine: EngineCodegen, Specialized: true,
			Seed: opts.Seed, Repetitions: opts.Repetitions, Warmup: opts.Warmup,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", l), base.MsString(), specd.MsString(),
			speedup(base.NsPerCheckpoint, specd.NsPerCheckpoint))
	}
	return t, nil
}
