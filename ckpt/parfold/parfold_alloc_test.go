package parfold_test

import (
	"math/rand"
	"runtime"
	"testing"

	"ickpt/ckpt"
	"ickpt/ckpt/parfold"
	"ickpt/internal/synth"
)

// TestSteadyStateFoldClearSetRecycled pins the clear-set recycling of the
// sessionless fold paths: after warm-up, an incremental fold must not regrow
// its epoch clear-set (or its body buffer) every epoch. Before the fix, the
// folder took each epoch's clear-set out of the emitter and stranded it in
// lastClears without ever retiring it to the pool, so every fold re-paid the
// full append growth cascade — ~2.5x wall time on dirty-set-heavy
// incremental folds, the dominant part of the old "parallel fold loses at
// workers=1" regression. Mallocs are counted, not
// timed, so the test is immune to scheduler noise.
func TestSteadyStateFoldClearSetRecycled(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	cases := []struct {
		name    string
		workers int
		// budget is the per-fold malloc allowance after warm-up: the
		// inline path is allocation-free; the sharded path pays a fixed
		// ~45 mallocs for its per-fold chunk/err tables and shard
		// goroutines, a cost independent of the dirty-set size — unlike
		// the starved-pool cascade, which grows with it (30 mallocs /
		// 14 MB per fold at the benchmark's 20000 structures).
		budget uint64
	}{
		{"inline", 1, 2},
		{"sharded", 2, 64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := synth.Build(synth.Shape{Structures: 300, ListLen: 4, Kind: synth.Ints10})
			drain(t, w)
			folder := parfold.NewGeneric(
				parfold.WithWorkers(tc.workers), parfold.WithShards(2*tc.workers))
			roots := w.Roots()
			mod := synth.ModPattern{Percent: 50, ModifiableLists: 3}
			rng := rand.New(rand.NewSource(7))

			fold := func() {
				w.Mutate(rng, mod)
				if _, _, err := folder.Fold(ckpt.Incremental, roots); err != nil {
					t.Fatalf("fold: %v", err)
				}
			}
			for i := 0; i < 3; i++ {
				fold()
			}
			var ms0, ms1 runtime.MemStats
			const rounds = 5
			runtime.ReadMemStats(&ms0)
			for i := 0; i < rounds; i++ {
				fold()
			}
			runtime.ReadMemStats(&ms1)
			perFold := (ms1.Mallocs - ms0.Mallocs) / rounds
			if perFold > tc.budget {
				t.Fatalf("steady-state incremental fold makes %d mallocs, want <= %d (clear-set pool starved?)",
					perFold, tc.budget)
			}
		})
	}
}
