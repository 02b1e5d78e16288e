package main

import (
	"os"
	"path/filepath"
	"testing"

	"ickpt/internal/harness"
)

// tinyOpts keeps CLI tests fast.
func tinyOpts() harness.Options {
	return harness.Options{Structures: 20, Repetitions: 1, Warmup: 0, Seed: 1}
}

// quiet redirects stdout away from the test log until the test ends.
func quiet(t *testing.T) {
	t.Helper()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = old
		devnull.Close()
	})
}

func TestRunSingleExperiment(t *testing.T) {
	quiet(t)
	if err := run("fig7", tinyOpts(), 1, "image", ""); err != nil {
		t.Fatalf("run(fig7): %v", err)
	}
}

func TestRunDSPWorkload(t *testing.T) {
	quiet(t)
	if err := run("table1", tinyOpts(), 1, "dsp", ""); err != nil {
		t.Fatalf("run(table1, dsp): %v", err)
	}
	if err := run("table1", tinyOpts(), 1, "nope", ""); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestRunUnknownExperiment: only the paper's tables, figures and ablations
// are experiments; anything else is refused before any measurement runs.
func TestRunUnknownExperiment(t *testing.T) {
	for _, id := range []string{"nope", "parallel", "delta", "rewind"} {
		if err := run(id, tinyOpts(), 1, "image", ""); err == nil {
			t.Errorf("experiment %q accepted", id)
		}
	}
}

func TestRunWritesCSV(t *testing.T) {
	quiet(t)
	dir := t.TempDir()
	if err := run("fig8", tinyOpts(), 1, "image", dir); err != nil {
		t.Fatalf("run(fig8): %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig8.csv")); err != nil {
		t.Errorf("CSV not written: %v", err)
	}
}
