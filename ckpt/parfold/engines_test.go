package parfold_test

import (
	"bytes"
	"runtime"
	"testing"

	"ickpt/ckpt"
	"ickpt/ckpt/parfold"
	"ickpt/internal/synth"
	"ickpt/reflectckpt"
	"ickpt/spec"
)

// The four engines' entry points are values of one type: nothing adapts them
// on the way into parfold.New or a sequential root loop.
var (
	_ parfold.FoldFunc = (*ckpt.Writer).Checkpoint
	_ parfold.FoldFunc = (*reflectckpt.Engine)(nil).Checkpoint
	_ parfold.FoldFunc = (*spec.Plan)(nil).Fold
	_ parfold.FoldFunc = parfold.FoldEmitter(nil)
)

// TestEngineStatsAgree: the engines are interchangeable routines over the
// same root, so an incremental checkpoint of the same population reports the
// same Visited / Recorded / Skipped — and the same bytes — whichever routine
// ran, looped sequentially or shared by four fold workers. The reflect row
// pins a defect: its traversal recorded-if-modified without ever counting a
// skip.
func TestEngineStatsAgree(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	shape := synth.Shape{Structures: 24, ListLen: 3, Kind: synth.Ints1}
	plan, err := synth.CompilePlan(shape.Kind, nil, spec.WithMode(ckpt.Incremental))
	if err != nil {
		t.Fatalf("compile structure-only plan: %v", err)
	}
	gen, ok := synth.Generated(synth.GenKey(shape.Kind, ""))
	if !ok {
		t.Fatal("no structure-only generated routine")
	}
	engines := []struct {
		name string
		fold parfold.FoldFunc
	}{
		{"virtual", (*ckpt.Writer).Checkpoint},
		{"reflect", reflectckpt.NewEngine().Checkpoint},
		{"plan", plan.Fold},
		{"codegen", parfold.FoldEmitter(gen)},
	}

	for _, pop := range []struct {
		name     string
		fraction float64
	}{{"clean", 0}, {"partly-dirty", 0.3}} {
		t.Run(pop.name, func(t *testing.T) {
			// take builds the population afresh and checkpoints it once.
			take := func(fold parfold.FoldFunc, workers int) ([]byte, ckpt.Stats) {
				t.Helper()
				w := synth.Build(shape)
				drain(t, w)
				if pop.fraction > 0 && w.MutateEvery(pop.fraction) == 0 {
					t.Fatal("fixture dirtied nothing")
				}
				if workers == 0 {
					wr := ckpt.NewWriter()
					wr.Start(ckpt.Incremental)
					for _, r := range w.Roots() {
						if err := fold(wr, r); err != nil {
							t.Fatalf("sequential fold: %v", err)
						}
					}
					body, stats, err := wr.Finish()
					if err != nil {
						t.Fatalf("finish: %v", err)
					}
					return body, stats
				}
				folder := parfold.New(fold, parfold.WithWorkers(workers))
				defer folder.Release()
				body, stats, err := folder.Fold(ckpt.Incremental, w.Roots())
				if err != nil {
					t.Fatalf("parallel fold: %v", err)
				}
				if folder.Spawned() == 0 {
					t.Fatal("fold ran inline")
				}
				return append([]byte(nil), body...), stats
			}

			want, wantStats := take(engines[0].fold, 0)
			if wantStats.Visited == 0 || wantStats.Recorded+wantStats.Skipped != wantStats.Visited {
				t.Fatalf("reference stats %+v: every visited object is recorded or skipped", wantStats)
			}
			for _, eng := range engines {
				for _, workers := range []int{0, 4} {
					got, stats := take(eng.fold, workers)
					if stats != wantStats {
						t.Errorf("%s workers=%d: stats %+v, want %+v", eng.name, workers, stats, wantStats)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("%s workers=%d: body differs from the sequential virtual fold", eng.name, workers)
					}
				}
			}
		})
	}
}
