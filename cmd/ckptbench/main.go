// Command ckptbench regenerates the paper's tables and figures.
//
// Usage:
//
//	ckptbench [-experiment all|table1|table2|fig7|fig8|fig9|fig10|fig11|ablations|parallel|dirtyset|rewind|interp|multitenant|delta]
//	          [-n STRUCTURES] [-scale N] [-reps R] [-warmup W] [-seed S]
//	          [-csv DIR] [-parallel WORKERS] [-shards N] [-rewind]
//
// The parallel experiment measures the sharded parallel fold (ckpt/parfold)
// against the sequential writer across a worker grid, and writes the result
// as BENCH_parallel.json. -parallel N routes every synthetic experiment
// through the parallel folder with N workers; -shards overrides the shard
// count (0 = 4x workers).
//
// The dirtyset experiment sweeps modification density (0.1%..100%) and
// measures the O(dirty) mark-queue fold against the incremental traversal,
// writing BENCH_dirtyset.json.
//
// The rewind experiment (also reachable as -rewind) checkpoints an editor
// undo/redo history into a stablelog at several history lengths, ages it
// with the binomial retention schedule, and measures RewindTo at several
// distances from the head, writing BENCH_rewind.json.
//
// The interp experiment runs the hostile interpreter workload
// (internal/interp) across a program-size x allocation-churn grid and
// measures the zero-copy log handoff (AsyncWriter.Reserve / Writer.SwapEncoder
// / AsyncWriter.Submit) against the copying AsyncWriter.Append baseline, for
// both the O(dirty) and full checkpoint disciplines, writing
// BENCH_interp.json.
//
// The multitenant experiment measures the multi-tenant checkpoint service
// (ckpt/tenant) across a tenant-count x churn-rate x worker-count grid:
// N independent domains share one fold worker pool and one AsyncWriter log,
// and each round mutates churn% of the tenants, requests their folds, and
// flushes. It writes BENCH_multitenant.json, recording GOMAXPROCS and the
// physical core count the numbers were taken on.
//
// The delta experiment sweeps payload size x mutated byte fraction and
// measures the sub-object delta encoding (ckpt.WithDeltaEncoding) — bytes/epoch and ns/checkpoint against a plain
// writer on a twin population — writing BENCH_delta.json.
//
// Each experiment prints a table whose rows mirror the corresponding paper
// result; with -csv the tables are also written as CSV files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"ickpt/internal/harness"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (table1, table2, fig7..fig11, ablations, all)")
		structures = flag.Int("n", 20000, "synthetic structures (the paper uses 20000)")
		scale      = flag.Int("scale", 4, "analysis workload scale (copies of the program)")
		workload   = flag.String("workload", "image", "analysis workload: image or dsp")
		reps       = flag.Int("reps", 5, "measured repetitions per cell (median reported)")
		warmup     = flag.Int("warmup", 1, "warmup checkpoints per cell")
		seed       = flag.Int64("seed", 1, "mutation seed")
		csvDir     = flag.String("csv", "", "also write each table as CSV into this directory")
		parallel   = flag.Int("parallel", 0, "run synthetic experiments through the parallel fold with this many workers (0 = sequential)")
		shards     = flag.Int("shards", 0, "shard count for the parallel fold (0 = 4x workers)")
		rewind     = flag.Bool("rewind", false, "shorthand for -experiment rewind")
	)
	flag.Parse()
	if *rewind {
		*experiment = "rewind"
	}

	opts := harness.Options{
		Structures:  *structures,
		Repetitions: *reps,
		Warmup:      *warmup,
		Seed:        *seed,
	}
	if *parallel > 0 {
		opts.Par = harness.ParConfig{Enabled: true, Workers: *parallel, Shards: *shards}
	}
	if err := run(*experiment, opts, *scale, *workload, *csvDir, *shards); err != nil {
		fmt.Fprintln(os.Stderr, "ckptbench:", err)
		os.Exit(1)
	}
}

type experimentFn func() (*harness.Table, error)

func run(experiment string, opts harness.Options, scale int, workload, csvDir string, shards int) error {
	aw, err := harness.WorkloadByName(workload)
	if err != nil {
		return err
	}
	exps := map[string][]experimentFn{
		"multitenant": {func() (*harness.Table, error) {
			tbl, rep, err := harness.MultiTenantSweep(opts)
			if err != nil {
				return nil, err
			}
			if err := writeJSON("BENCH_multitenant.json", rep); err != nil {
				return nil, err
			}
			return tbl, nil
		}},
		"parallel": {func() (*harness.Table, error) {
			tbl, rep, err := harness.ParallelScaling(opts, aw, scale, shards)
			if err != nil {
				return nil, err
			}
			if err := writeJSON("BENCH_parallel.json", rep); err != nil {
				return nil, err
			}
			return tbl, nil
		}},
		"dirtyset": {func() (*harness.Table, error) {
			tbl, rep, err := harness.DirtySweep(opts)
			if err != nil {
				return nil, err
			}
			if err := writeJSON("BENCH_dirtyset.json", rep); err != nil {
				return nil, err
			}
			return tbl, nil
		}},
		"rewind": {func() (*harness.Table, error) {
			tbl, rep, err := harness.RewindSweep(opts)
			if err != nil {
				return nil, err
			}
			if err := writeJSON("BENCH_rewind.json", rep); err != nil {
				return nil, err
			}
			return tbl, nil
		}},
		"delta": {func() (*harness.Table, error) {
			tbl, rep, err := harness.DeltaSweep(opts)
			if err != nil {
				return nil, err
			}
			if err := writeJSON("BENCH_delta.json", rep); err != nil {
				return nil, err
			}
			return tbl, nil
		}},
		"interp": {func() (*harness.Table, error) {
			tbl, rep, err := harness.InterpSweep(opts)
			if err != nil {
				return nil, err
			}
			if err := writeJSON("BENCH_interp.json", rep); err != nil {
				return nil, err
			}
			return tbl, nil
		}},
		"table1":         {func() (*harness.Table, error) { return harness.Table1For(aw, scale) }},
		"table1-profile": {func() (*harness.Table, error) { return harness.Table1ProfileFor(aw, scale) }},
		"table2":         {func() (*harness.Table, error) { return harness.Table2(opts) }},
		"fig7":           {func() (*harness.Table, error) { return harness.Fig7(opts) }},
		"fig8":           {func() (*harness.Table, error) { return harness.Fig8(opts) }},
		"fig9":           {func() (*harness.Table, error) { return harness.Fig9(opts) }},
		"fig10":          {func() (*harness.Table, error) { return harness.Fig10(opts) }},
		"fig11":          {func() (*harness.Table, error) { return harness.Fig11(opts) }},
		"ablations": {
			func() (*harness.Table, error) { return harness.AblationDispatch(opts) },
			func() (*harness.Table, error) { return harness.AblationFlags(opts) },
			func() (*harness.Table, error) { return harness.AblationDepth(opts) },
			func() (*harness.Table, error) { return harness.AblationSize(opts) },
			func() (*harness.Table, error) { return harness.AblationAsync(opts) },
		},
	}
	order := []string{"table1", "table1-profile", "fig7", "fig8", "fig9", "fig10", "fig11", "table2", "ablations", "parallel", "dirtyset", "rewind", "interp", "multitenant", "delta"}

	var selected []experimentFn
	if experiment == "all" {
		for _, id := range order {
			selected = append(selected, exps[id]...)
		}
	} else {
		fns, ok := exps[experiment]
		if !ok {
			return fmt.Errorf("unknown experiment %q (want one of %v or all)", experiment, order)
		}
		selected = fns
	}

	for _, fn := range selected {
		tbl, err := fn()
		if err != nil {
			return err
		}
		if err := tbl.Render(os.Stdout); err != nil {
			return err
		}
		if csvDir != "" {
			if err := os.MkdirAll(csvDir, 0o755); err != nil {
				return err
			}
			f, err := os.Create(filepath.Join(csvDir, tbl.ID+".csv"))
			if err != nil {
				return err
			}
			if err := tbl.CSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeJSON writes v as indented JSON to path.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
