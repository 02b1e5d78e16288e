// Benchmarks regenerating each of the paper's tables and figures, one
// bench function per result, with sub-benchmarks per parameter cell.
//
//	go test -bench=. -benchmem
//
// In -short mode the synthetic population is reduced from the paper's
// 20000 structures to 2000 so the suite stays fast; ratios between
// sub-benchmarks — the reproduction target — are preserved.
package ickpt_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ickpt/ckpt"
	"ickpt/internal/analysis"
	"ickpt/internal/harness"
	"ickpt/internal/synth"
)

// benchStructures returns the synthetic population size.
func benchStructures() int {
	if testing.Short() {
		return 2000
	}
	return 20000
}

// benchSynth measures one checkpoint per iteration. The default ns/op
// includes the (cheap) mutation step; the reported ckpt-ns/op metric times
// only checkpoint construction — the figure the paper's plots compare.
// (StopTimer/StartTimer are deliberately avoided: they read memstats and
// would dwarf the checkpoint on large heaps.)
func benchSynth(b *testing.B, cfg harness.SynthConfig) {
	b.Helper()
	if cfg.Mode == 0 {
		cfg.Mode = ckpt.Incremental
	}
	w := synth.Build(cfg.Shape)
	if err := w.Drain(); err != nil {
		b.Fatal(err)
	}
	fold, err := harness.NewFold(cfg)
	if err != nil {
		b.Fatal(err)
	}
	roots := w.Roots()
	rng := rand.New(rand.NewSource(1))
	wr := ckpt.NewWriter()
	var (
		bytes, recorded int
		ckptNs          int64
	)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Mutate(rng, cfg.Mod)
		t0 := time.Now()
		wr.Start(cfg.Mode)
		for _, r := range roots {
			if err := fold(wr, r); err != nil {
				b.Fatal(err)
			}
		}
		body, stats, err := wr.Finish()
		ckptNs += time.Since(t0).Nanoseconds()
		if err != nil {
			b.Fatal(err)
		}
		bytes, recorded = len(body), stats.Recorded
	}
	b.ReportMetric(float64(ckptNs)/float64(b.N), "ckpt-ns/op")
	b.ReportMetric(float64(bytes), "body-bytes")
	b.ReportMetric(float64(recorded), "records")
}

// BenchmarkTable1 runs the analysis engine's full three-phase pipeline
// under each checkpoint strategy (one pipeline per iteration).
func BenchmarkTable1(b *testing.B) {
	scale := 2
	for _, strategy := range []string{harness.StrategyFull, harness.StrategyIncr, harness.StrategySpec} {
		b.Run(strategy, func(b *testing.B) {
			e, div, err := harness.NewImageEngine(scale)
			if err != nil {
				b.Fatal(err)
			}
			_ = e
			for i := 0; i < b.N; i++ {
				e, div, err = harness.NewImageEngine(scale)
				if err != nil {
					b.Fatal(err)
				}
				w := ckpt.NewWriter()
				roots := e.Roots()
				w.Start(ckpt.Full) // baseline
				for _, r := range roots {
					if err := w.Checkpoint(r); err != nil {
						b.Fatal(err)
					}
				}
				if _, _, err := w.Finish(); err != nil {
					b.Fatal(err)
				}
				ck := func(phase string, iter int) error {
					mode := ckpt.Incremental
					if strategy == harness.StrategyFull {
						mode = ckpt.Full
					}
					w.Start(mode)
					if strategy == harness.StrategySpec {
						fn, ok := analysis.Generated(phase)
						if !ok {
							return fmt.Errorf("no generated routine %q", phase)
						}
						em := w.Emitter()
						for _, r := range roots {
							fn(r, em)
						}
					} else {
						for _, r := range roots {
							if err := w.Checkpoint(r); err != nil {
								return err
							}
						}
					}
					_, _, err := w.Finish()
					return err
				}
				if _, err := e.RunAll(div, ck); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7 compares full and incremental checkpointing on the generic
// engine.
func BenchmarkFig7(b *testing.B) {
	n := benchStructures()
	for _, pct := range []int{100, 50, 25} {
		for _, mode := range []ckpt.Mode{ckpt.Full, ckpt.Incremental} {
			b.Run(fmt.Sprintf("%s/%d%%", mode, pct), func(b *testing.B) {
				benchSynth(b, harness.SynthConfig{
					Shape:  synth.Shape{Structures: n, ListLen: 5, Kind: synth.Ints10},
					Mod:    synth.ModPattern{Percent: pct, ModifiableLists: 5},
					Mode:   mode,
					Engine: harness.EngineVirtual,
				})
			})
		}
	}
}

// BenchmarkFig8 compares the generic driver against structure-only
// specialization.
func BenchmarkFig8(b *testing.B) {
	n := benchStructures()
	for _, engine := range []harness.Engine{harness.EngineVirtual, harness.EngineCodegen} {
		for _, pct := range []int{100, 25} {
			b.Run(fmt.Sprintf("%s/%d%%", engine, pct), func(b *testing.B) {
				benchSynth(b, harness.SynthConfig{
					Shape:  synth.Shape{Structures: n, ListLen: 5, Kind: synth.Ints10},
					Mod:    synth.ModPattern{Percent: pct, ModifiableLists: 5},
					Engine: engine,
				})
			})
		}
	}
}

// BenchmarkFig9 adds the modifiable-list-set pattern.
func BenchmarkFig9(b *testing.B) {
	n := benchStructures()
	for _, m := range []int{1, 3, 5} {
		mod := synth.ModPattern{Percent: 50, ModifiableLists: m}
		b.Run(fmt.Sprintf("virtual/lists%d", m), func(b *testing.B) {
			benchSynth(b, harness.SynthConfig{
				Shape:  synth.Shape{Structures: n, ListLen: 5, Kind: synth.Ints10},
				Mod:    mod,
				Engine: harness.EngineVirtual,
			})
		})
		b.Run(fmt.Sprintf("codegen/lists%d", m), func(b *testing.B) {
			benchSynth(b, harness.SynthConfig{
				Shape:       synth.Shape{Structures: n, ListLen: 5, Kind: synth.Ints10},
				Mod:         mod,
				Engine:      harness.EngineCodegen,
				Specialized: true,
			})
		})
	}
}

// BenchmarkFig10 adds last-element-only positions.
func BenchmarkFig10(b *testing.B) {
	n := benchStructures()
	for _, m := range []int{1, 3, 5} {
		mod := synth.ModPattern{Percent: 50, ModifiableLists: m, LastOnly: true}
		b.Run(fmt.Sprintf("virtual/last%d", m), func(b *testing.B) {
			benchSynth(b, harness.SynthConfig{
				Shape:  synth.Shape{Structures: n, ListLen: 5, Kind: synth.Ints10},
				Mod:    mod,
				Engine: harness.EngineVirtual,
			})
		})
		b.Run(fmt.Sprintf("codegen/last%d", m), func(b *testing.B) {
			benchSynth(b, harness.SynthConfig{
				Shape:       synth.Shape{Structures: n, ListLen: 5, Kind: synth.Ints10},
				Mod:         mod,
				Engine:      harness.EngineCodegen,
				Specialized: true,
			})
		})
	}
}

// BenchmarkFig11 runs the full engine ladder on one pattern: the
// unspecialized tiers and both specialization backends.
func BenchmarkFig11(b *testing.B) {
	n := benchStructures()
	mod := synth.ModPattern{Percent: 50, ModifiableLists: 3, LastOnly: true}
	for _, tc := range []struct {
		engine      harness.Engine
		specialized bool
	}{
		{harness.EngineReflect, false},
		{harness.EngineVirtual, false},
		{harness.EnginePlan, true},
		{harness.EngineCodegen, true},
	} {
		b.Run(string(tc.engine), func(b *testing.B) {
			benchSynth(b, harness.SynthConfig{
				Shape:       synth.Shape{Structures: n, ListLen: 5, Kind: synth.Ints10},
				Mod:         mod,
				Engine:      tc.engine,
				Specialized: tc.specialized,
			})
		})
	}
}

// BenchmarkTable2 measures absolute times across all four engines for the
// two possibly-modified-list counts the paper tabulates.
func BenchmarkTable2(b *testing.B) {
	n := benchStructures()
	for _, tc := range []struct {
		engine      harness.Engine
		specialized bool
	}{
		{harness.EngineReflect, false},
		{harness.EngineVirtual, false},
		{harness.EnginePlan, true},
		{harness.EngineCodegen, true},
	} {
		for _, m := range []int{1, 5} {
			b.Run(fmt.Sprintf("%s/lists%d", tc.engine, m), func(b *testing.B) {
				benchSynth(b, harness.SynthConfig{
					Shape:       synth.Shape{Structures: n, ListLen: 5, Kind: synth.Ints10},
					Mod:         synth.ModPattern{Percent: 50, ModifiableLists: m},
					Engine:      tc.engine,
					Specialized: tc.specialized,
				})
			})
		}
	}
}

// BenchmarkAblationDepth checks the speedup-grows-with-structure claim.
func BenchmarkAblationDepth(b *testing.B) {
	n := benchStructures() / 2
	for _, l := range []int{1, 5, 20} {
		mod := synth.ModPattern{Percent: 100, ModifiableLists: 5, LastOnly: true}
		b.Run(fmt.Sprintf("virtual/len%d", l), func(b *testing.B) {
			benchSynth(b, harness.SynthConfig{
				Shape:  synth.Shape{Structures: n, ListLen: l, Kind: synth.Ints1},
				Mod:    mod,
				Engine: harness.EngineVirtual,
			})
		})
		b.Run(fmt.Sprintf("codegen/len%d", l), func(b *testing.B) {
			benchSynth(b, harness.SynthConfig{
				Shape:       synth.Shape{Structures: n, ListLen: l, Kind: synth.Ints1},
				Mod:         mod,
				Engine:      harness.EngineCodegen,
				Specialized: true,
			})
		})
	}
}
