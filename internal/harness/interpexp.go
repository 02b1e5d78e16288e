package harness

import (
	"fmt"
	"runtime"
	"time"

	"ickpt/ckpt"
	"ickpt/internal/faultfs"
	"ickpt/internal/interp"
	"ickpt/stablelog"
	"ickpt/wire"
)

// This file measures the zero-copy log handoff under the interpreter
// workload (internal/interp): checkpoint throughput when Record writes
// straight into a log-segment-backed buffer (stablelog.AsyncWriter.Reserve /
// Writer.SwapEncoder / AsyncWriter.Submit) against the append baseline (the
// writer's own buffer + AsyncWriter.Append), which pays one whole-body copy
// at the log handoff. Both variants run the one record encoder. The sweep
// crosses program size and allocation churn with both checkpoint disciplines
// (O(dirty) mark-queue fold and full traversal), so the copy tax is visible
// both where bodies are small and framing dominates and where bodies are
// large and memcpy dominates.

// InterpRow is one cell of the interpreter sweep: a (size, churn, discipline)
// point with both handoff variants measured on twin machines.
type InterpRow struct {
	// Size is the number of generated top-level forms.
	Size int `json:"size"`
	// ChurnPct is the probability (in percent) that a generated form
	// allocates fresh heap objects rather than mutating existing ones.
	ChurnPct float64 `json:"churn_pct"`
	// Discipline is "dirty" (mark-queue incremental fold) or "full"
	// (traversal, every object recorded).
	Discipline string `json:"discipline"`
	// HeapObjects is the final live heap size of the measured machine.
	HeapObjects int `json:"heap_objects"`
	// Epochs measured, and the median checkpoint body size across them.
	Epochs    int     `json:"epochs"`
	BodyBytes float64 `json:"body_bytes"`
	// AppendBps and ZeroCopyBps are aggregate checkpoint throughputs
	// (total body bytes / total time through encode + log handoff).
	AppendBps   float64 `json:"append_bps"`
	ZeroCopyBps float64 `json:"zerocopy_bps"`
	// Speedup is ZeroCopyBps / AppendBps.
	Speedup float64 `json:"speedup"`
}

// InterpReport is the machine-readable result of the sweep
// (BENCH_interp.json).
type InterpReport struct {
	Experiment string      `json:"experiment"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NumCPU     int         `json:"num_cpu"`
	StepsEpoch int         `json:"steps_per_epoch"`
	Rows       []InterpRow `json:"rows"`
}

// interpSizes and interpChurns form the sweep grid.
var (
	interpSizes  = []int{240, 960}
	interpChurns = []float64{0.05, 0.30, 0.80}
)

// interpStepsPerEpoch is how many top-level forms run between checkpoints.
const interpStepsPerEpoch = 12

// interpRuns is how many times each variant is measured per cell; the best
// aggregate rate is reported, discarding runs degraded by scheduler
// interference (the sweep shares one CPU with the async writer goroutine).
const interpRuns = 3

// interpMeasure runs one variant interpRuns times and keeps the best rate.
func interpMeasure(size int, churn float64, seed int64, dirty, zerocopy bool, epochs int) (bps, body float64, n, heap int, err error) {
	for r := 0; r < interpRuns; r++ {
		rBps, rBody, rn, rHeap, rErr := interpEncodeRun(size, churn, seed, dirty, zerocopy, epochs)
		if rErr != nil {
			return 0, 0, 0, 0, rErr
		}
		if rBps > bps {
			bps, body, n, heap = rBps, rBody, rn, rHeap
		}
	}
	return bps, body, n, heap, nil
}

// interpEncodeRun measures one handoff variant over a fresh machine: epochs of
// stepped evaluation, each closed by a checkpoint sunk into a
// stablelog.AsyncWriter on an in-memory filesystem. It returns the aggregate
// bytes/sec across all epochs (dirty-epoch bodies are a few hundred bytes, so
// per-epoch windows sit at timer granularity and only the aggregate is
// stable), the median body size, the epoch count, and the final heap size.
func interpEncodeRun(size int, churn float64, seed int64, dirty, zerocopy bool, epochs int) (bps, body float64, n, heap int, err error) {
	m, err := interp.NewMachine(ckpt.NewDomain(), interp.GenProgram(seed, size, churn), 0)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	mem := faultfs.NewMem()
	log, err := stablelog.Create("interp.log", stablelog.WithFS(mem))
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer log.Close()
	aw := stablelog.NewAsyncWriter(log)
	defer aw.Close()

	wr := ckpt.NewWriter()

	var trk *ckpt.Tracker
	if dirty {
		// Drain construction flags with a throwaway full body, then watch.
		wr.Start(ckpt.Full)
		if err := wr.Checkpoint(m); err != nil {
			return 0, 0, 0, 0, err
		}
		if _, _, err := wr.Finish(); err != nil {
			return 0, 0, 0, 0, err
		}
		trk = ckpt.NewTracker()
		m.Domain().AttachTracker(trk)
		if err := trk.Watch(m); err != nil {
			return 0, 0, 0, 0, err
		}
	}

	var (
		bodies     []float64
		totalBytes float64
		totalTime  time.Duration
	)
	for e := 0; e < epochs; e++ {
		if m.Done() {
			break
		}
		m.Run(interpStepsPerEpoch)
		mode := ckpt.Full
		if dirty {
			if got := trk.NextMode(ckpt.Incremental); got != ckpt.Incremental {
				return 0, 0, 0, 0, fmt.Errorf("harness: interpreter churn degraded the tracker (epoch %d)", e)
			}
			mode = ckpt.Incremental
		}

		var enc *wire.Encoder
		if zerocopy {
			enc = aw.Reserve()
			wr.SwapEncoder(enc)
		}
		t0 := time.Now()
		wr.Start(mode)
		if dirty {
			err = wr.CheckpointDirty(trk, nil)
		} else {
			err = wr.Checkpoint(m)
		}
		if err != nil {
			return 0, 0, 0, 0, err
		}
		b, _, err := wr.Finish()
		if err != nil {
			return 0, 0, 0, 0, err
		}
		bodyLen := len(b)
		if zerocopy {
			err = aw.Submit(mode, wr.Epoch(), enc)
		} else {
			err = aw.Append(mode, wr.Epoch(), b)
		}
		if err != nil {
			return 0, 0, 0, 0, err
		}
		dt := time.Since(t0)
		// Drain the log outside the timed window: both variants pay the same
		// durability cost; the timed window isolates encode + handoff.
		if err := aw.Flush(); err != nil {
			return 0, 0, 0, 0, err
		}
		if bodyLen > 0 && dt > 0 {
			totalBytes += float64(bodyLen)
			totalTime += dt
			bodies = append(bodies, float64(bodyLen))
		}
	}
	if len(bodies) == 0 {
		return 0, 0, 0, 0, fmt.Errorf("harness: interpreter sweep cell produced no epochs (size %d churn %.2f)", size, churn)
	}
	return totalBytes / totalTime.Seconds(), median(bodies), len(bodies), m.HeapLen(), nil
}

// InterpSweep runs the interpreter encode sweep and returns the printable
// table plus the machine-readable report.
func InterpSweep(opts Options) (*Table, *InterpReport, error) {
	opts = opts.withDefaults()
	rep := &InterpReport{
		Experiment: "interp",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		StepsEpoch: interpStepsPerEpoch,
	}
	t := &Table{
		ID:      "interp",
		Title:   "Interpreter workload: zero-copy log handoff vs append baseline (bytes/sec)",
		Columns: []string{"size", "churn", "discipline", "heap", "epochs", "body (B)", "append (MB/s)", "zero-copy (MB/s)", "speedup"},
		Notes: []string{
			fmt.Sprintf("%d interpreter steps per epoch; log on in-memory fs, Flush outside the timed window; best of %d runs per variant", interpStepsPerEpoch, interpRuns),
			"append = writer-owned buffer + AsyncWriter.Append (one body copy)",
			"zero-copy = AsyncWriter.Reserve + Writer.SwapEncoder + AsyncWriter.Submit",
		},
	}

	for _, size := range interpSizes {
		for _, churn := range interpChurns {
			epochs := opts.Warmup + opts.Repetitions + size/interpStepsPerEpoch
			for _, discipline := range []string{"dirty", "full"} {
				dirty := discipline == "dirty"
				aBps, aBody, _, _, err := interpMeasure(size, churn, opts.Seed, dirty, false, epochs)
				if err != nil {
					return nil, nil, err
				}
				zBps, _, n, heap, err := interpMeasure(size, churn, opts.Seed, dirty, true, epochs)
				if err != nil {
					return nil, nil, err
				}
				row := InterpRow{
					Size: size, ChurnPct: churn * 100, Discipline: discipline,
					HeapObjects: heap, Epochs: n, BodyBytes: aBody,
					AppendBps: aBps, ZeroCopyBps: zBps,
				}
				if aBps > 0 {
					row.Speedup = zBps / aBps
				}
				rep.Rows = append(rep.Rows, row)
				t.AddRow(
					fmt.Sprintf("%d", row.Size),
					fmt.Sprintf("%.0f%%", row.ChurnPct),
					row.Discipline,
					fmt.Sprintf("%d", row.HeapObjects),
					fmt.Sprintf("%d", row.Epochs),
					fmt.Sprintf("%.0f", row.BodyBytes),
					fmt.Sprintf("%.2f", row.AppendBps/1e6),
					fmt.Sprintf("%.2f", row.ZeroCopyBps/1e6),
					fmt.Sprintf("%.2f", row.Speedup),
				)
			}
		}
	}
	return t, rep, nil
}
