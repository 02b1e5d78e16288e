package ckpt_test

import (
	"math/rand"
	"testing"

	"ickpt/ckpt"
	"ickpt/internal/difftest"
	"ickpt/internal/synth"
)

// seedCorpus feeds every checkpoint body from the standard difftest traces
// into the fuzzer, so mutation starts from structurally valid bodies across
// all four engines and three workloads.
func seedCorpus(f *testing.F) [][]byte {
	bodies, err := difftest.SeedBodies()
	if err != nil {
		f.Fatalf("seed corpus: %v", err)
	}
	for _, b := range bodies {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{1})
	return bodies
}

// FuzzInspectBody drives the body decoder over arbitrary bytes: it must
// return an error or a consistent BodyInfo, never panic or over-read.
func FuzzInspectBody(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		records := 0
		info, err := ckpt.InspectBodyKinds(body, func(id uint64, tid ckpt.TypeID, _ byte, payload []byte) error {
			records++
			return nil
		})
		if err != nil {
			return
		}
		if info.Records != records {
			t.Fatalf("info.Records = %d, callback saw %d", info.Records, records)
		}
	})
}

// FuzzRebuilderApply applies a known-good full base body and then an
// arbitrary body: Apply must either reject the body (leaving state intact,
// so Build still succeeds) or accept it with Build never panicking.
func FuzzRebuilderApply(f *testing.F) {
	bodies := seedCorpus(f)
	base := bodies[0] // base full checkpoint of the first synth trace
	f.Fuzz(func(t *testing.T, body []byte) {
		rb := ckpt.NewRebuilder(synth.Registry())
		if err := rb.Apply(base); err != nil {
			t.Fatalf("base body rejected: %v", err)
		}
		if err := rb.Apply(body); err != nil {
			// Apply is documented atomic: the base state must survive.
			if _, err := rb.Build(ckpt.NewDomain()); err != nil {
				t.Fatalf("failed Apply corrupted rebuilder state: %v", err)
			}
			return
		}
		// Accepted bodies may still reference unknown types or dangling
		// ids; Build may error but must not panic.
		_, _ = rb.Build(ckpt.NewDomain())
	})
}

// FuzzRebuilderApplyRun replays two arbitrary bodies on top of a known-good
// base, as one run and one Apply at a time, and holds both to ApplyRun's
// oracle (rebuild_run_test.go): the naive model's error class, and its
// state — after a failure, exactly the state before.
func FuzzRebuilderApplyRun(f *testing.F) {
	bodies, err := difftest.SeedBodies()
	if err != nil {
		f.Fatalf("seed corpus: %v", err)
	}
	for i := 1; i < len(bodies); i++ {
		f.Add(bodies[i-1], bodies[i])
	}
	f.Add([]byte{}, []byte{1})
	// Runs over ids the rebuilder's id table keeps in its overflow map, and
	// moves out of it as its pages grow.
	for seed := int64(1); seed <= 4; seed++ {
		run := newRunGen(rand.New(rand.NewSource(seed)), true).run(2, false, -1, none)
		f.Add(run[0], run[1])
	}
	base := bodies[0]
	f.Fuzz(func(t *testing.T, a, b []byte) {
		checkRunAgainstModel(t, "fuzz", [][]byte{base}, [][]byte{a, b})
	})
}
