// Command ckptbench regenerates the paper's tables and figures.
//
// Usage:
//
//	ckptbench [-experiment all|table1|table1-profile|table2|fig7|fig8|fig9|fig10|fig11|ablations]
//	          [-n STRUCTURES] [-scale N] [-workload image|dsp] [-reps R] [-warmup W]
//	          [-seed S] [-csv DIR]
//
// Each experiment prints a table whose rows mirror the corresponding paper
// result; with -csv the tables are also written as CSV files.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"ickpt/internal/harness"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (table1, table1-profile, table2, fig7..fig11, ablations, all)")
		structures = flag.Int("n", 20000, "synthetic structures (the paper uses 20000)")
		scale      = flag.Int("scale", 4, "analysis workload scale (copies of the program)")
		workload   = flag.String("workload", "image", "analysis workload: image or dsp")
		reps       = flag.Int("reps", 5, "measured repetitions per cell (median reported)")
		warmup     = flag.Int("warmup", 1, "warmup checkpoints per cell")
		seed       = flag.Int64("seed", 1, "mutation seed")
		csvDir     = flag.String("csv", "", "also write each table as CSV into this directory")
	)
	flag.Parse()

	opts := harness.Options{
		Structures:  *structures,
		Repetitions: *reps,
		Warmup:      *warmup,
		Seed:        *seed,
	}
	if err := run(*experiment, opts, *scale, *workload, *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, "ckptbench:", err)
		os.Exit(1)
	}
}

type experimentFn func() (*harness.Table, error)

func run(experiment string, opts harness.Options, scale int, workload, csvDir string) error {
	aw, err := harness.WorkloadByName(workload)
	if err != nil {
		return err
	}
	exps := map[string][]experimentFn{
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
	order := []string{"table1", "table1-profile", "fig7", "fig8", "fig9", "fig10", "fig11", "table2", "ablations"}

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
