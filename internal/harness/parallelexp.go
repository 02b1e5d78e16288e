package harness

import (
	"fmt"
	"runtime"

	"ickpt/ckpt"
	"ickpt/ckpt/parfold"
	"ickpt/internal/analysis"
	"ickpt/internal/synth"
	"ickpt/spec"
)

// ParallelRow is one measurement cell of the parallel scaling experiment.
type ParallelRow struct {
	Workload        string  `json:"workload"`
	Mode            string  `json:"mode"`
	Engine          string  `json:"engine"`
	Strategy        string  `json:"strategy"` // "sequential" or "parallel"
	Workers         int     `json:"workers"`
	Shards          int     `json:"shards"`
	NsPerCheckpoint float64 `json:"ns_per_checkpoint"`
	Speedup         float64 `json:"speedup_vs_sequential"`
}

// ParallelReport is the machine-readable result of the scaling experiment
// (BENCH_parallel.json). GOMAXPROCS and NumCPU record the hardware the
// numbers were taken on: parallel speedup is bounded by the physical core
// count, so rows from a single-core machine legitimately show ~1x.
type ParallelReport struct {
	Experiment string        `json:"experiment"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	Structures int           `json:"structures"`
	Scale      int           `json:"scale"`
	Rows       []ParallelRow `json:"rows"`
}

// parallelWorkers is the worker grid of the scaling experiment.
var parallelWorkers = []int{1, 2, 4, 8}

// ParallelScaling measures the sharded parallel fold (ckpt/parfold) against
// the sequential writer on the synthetic workload and on a full checkpoint
// of the analysis engine's program representation, across a grid of worker
// counts. shards=0 uses the folder default (4x workers).
func ParallelScaling(opts Options, aw AnalysisWorkload, scale, shards int) (*Table, *ParallelReport, error) {
	opts = opts.withDefaults()
	rep := &ParallelReport{
		Experiment: "parallel",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Structures: opts.Structures,
		Scale:      scale,
	}
	t := &Table{
		ID:      "parallel",
		Title:   "Sharded parallel fold: checkpoint time and speedup vs sequential",
		Columns: []string{"workload", "mode", "engine", "workers", "time (ms)", "speedup"},
		Notes: []string{
			fmt.Sprintf("GOMAXPROCS=%d num_cpu=%d; parallel bytes are identical to sequential",
				rep.GOMAXPROCS, rep.NumCPU),
			fmt.Sprintf("synth: %d structures, length 5, 10 ints, 50%% of 3 lists; analysis: %s x%d full body",
				opts.Structures, aw.Name, scale),
		},
	}

	addRows := func(workload, mode, engine string, seqNs float64, parNs map[int]float64) {
		rep.Rows = append(rep.Rows, ParallelRow{
			Workload: workload, Mode: mode, Engine: engine, Strategy: "sequential",
			NsPerCheckpoint: seqNs, Speedup: 1,
		})
		t.AddRow(workload, mode, engine, "seq", fmt.Sprintf("%.3f", seqNs/1e6), "1.00")
		for _, wk := range parallelWorkers {
			ns := parNs[wk]
			rep.Rows = append(rep.Rows, ParallelRow{
				Workload: workload, Mode: mode, Engine: engine, Strategy: "parallel",
				Workers: wk, Shards: shards, NsPerCheckpoint: ns, Speedup: seqNs / ns,
			})
			t.AddRow(workload, mode, engine, fmt.Sprintf("%d", wk),
				fmt.Sprintf("%.3f", ns/1e6), speedup(seqNs, ns))
		}
	}

	// Synthetic workload: the paper's 10-ints / length-5 shape under the
	// 50%-of-3-lists mutation pattern, on the generic engine (full and
	// incremental) and the specialized codegen engine.
	shape := synth.Shape{Structures: opts.Structures, ListLen: 5, Kind: synth.Ints10}
	mod := synth.ModPattern{Percent: 50, ModifiableLists: 3}
	synthCells := []struct {
		mode        ckpt.Mode
		engine      Engine
		specialized bool
	}{
		{ckpt.Full, EngineVirtual, false},
		{ckpt.Incremental, EngineVirtual, false},
		{ckpt.Incremental, EngineCodegen, true},
	}
	for _, c := range synthCells {
		cfg := SynthConfig{
			Shape: shape, Mod: mod, Mode: c.mode, Engine: c.engine, Specialized: c.specialized,
			Seed: opts.Seed, Repetitions: opts.Repetitions, Warmup: opts.Warmup,
		}
		seq, err := MeasureSynth(cfg)
		if err != nil {
			return nil, nil, err
		}
		parNs := make(map[int]float64, len(parallelWorkers))
		for _, wk := range parallelWorkers {
			cfg.Par = ParConfig{Enabled: true, Workers: wk, Shards: shards}
			m, err := MeasureSynth(cfg)
			if err != nil {
				return nil, nil, err
			}
			parNs[wk] = m.NsPerCheckpoint
		}
		addRows("synth", c.mode.String(), string(c.engine), seq.NsPerCheckpoint, parNs)
	}

	// Analysis workload: repeated full checkpoints of the whole program
	// representation (full mode needs no modified flags, so the same body
	// can be folded over and over), generic and plan engines.
	e, _, err := aw.NewEngine(scale)
	if err != nil {
		return nil, nil, err
	}
	roots := append([]ckpt.Checkpointable(nil), e.Roots()...)
	ckpt.SortRoots(roots)
	planFull, err := analysis.CompilePlan(nil, spec.WithMode(ckpt.Full))
	if err != nil {
		return nil, nil, err
	}
	analysisCells := []struct {
		engine string
		fold   parfold.FoldFunc
	}{
		{"virtual", (*ckpt.Writer).Checkpoint},
		{"plan", planFull.Fold},
	}
	for _, c := range analysisCells {
		seqNs, err := measureFold(roots, c.fold, ParConfig{}, opts)
		if err != nil {
			return nil, nil, err
		}
		parNs := make(map[int]float64, len(parallelWorkers))
		for _, wk := range parallelWorkers {
			ns, err := measureFold(roots, c.fold, ParConfig{Enabled: true, Workers: wk, Shards: shards}, opts)
			if err != nil {
				return nil, nil, err
			}
			parNs[wk] = ns
		}
		addRows("analysis-"+aw.Name, ckpt.Full.String(), c.engine, seqNs, parNs)
	}
	return t, rep, nil
}

// measureFold times a full checkpoint of roots — sequential, or parallel when
// par is enabled — median over the configured repetitions.
func measureFold(roots []ckpt.Checkpointable, fold parfold.FoldFunc, par ParConfig, opts Options) (float64, error) {
	take := newTake(fold, par, ckpt.Full, roots)
	var times []float64
	for i := 0; i < opts.Warmup+opts.Repetitions; i++ {
		dt, _, _, err := take()
		if err != nil {
			return 0, err
		}
		if i >= opts.Warmup {
			times = append(times, float64(dt.Nanoseconds()))
		}
	}
	return median(times), nil
}
