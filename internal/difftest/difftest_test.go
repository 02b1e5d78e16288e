package difftest

import (
	"testing"

	"ickpt/ckpt"
)

// TestDifferential is the equivalence matrix from the issue: every trace x
// {virtual, reflect, plan, codegen} x {sequential, parallel}, byte-level and
// rebuild-level.
func TestDifferential(t *testing.T) {
	for _, tr := range Traces() {
		t.Run(tr.Name, func(t *testing.T) {
			RunDiff(t, tr)
		})
	}
}

// TestSeedBodies keeps the fuzz seed corpus honest: non-empty, and every
// body parses as a checkpoint body.
func TestSeedBodies(t *testing.T) {
	bodies, err := SeedBodies()
	if err != nil {
		t.Fatalf("SeedBodies: %v", err)
	}
	if len(bodies) == 0 {
		t.Fatal("empty seed corpus")
	}
	for i, b := range bodies {
		info, err := ckpt.InspectBodyKinds(b, nil)
		if err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		if info.Epoch == 0 {
			t.Fatalf("body %d: epoch 0", i)
		}
	}
}

// TestReplayUnknownEngine pins the harness's own error path.
func TestReplayUnknownEngine(t *testing.T) {
	tr := EditorTrace(2, 2, 1, 1)
	if _, _, err := Replay(tr, "nope", Strategies[0]); err == nil {
		t.Fatal("expected error for unknown engine")
	}
}
