// Command bench is the repository's benchmark: four closed-loop pipeline
// workloads measured end to end (mutate → barrier → dirty drain → fold/encode
// → delta → AsyncWriter → fsync → ack, and crash → Recover/RewindTo → live
// objects) and layer by layer, with every output verified. See README.md.
//
// Run it through run.sh, which builds it inside the checkout:
//
//	bash bench/run.sh                      all workloads, interleaved rounds
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	bash bench/run.sh -selfcheck           two sets of runs; do they agree?
//	bash bench/run.sh -compare old.json new.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

var workloads = []workload{analysisPhases{}, synthSparse{}, blobDense{}, tenants{}}

func workloadByName(name string) workload {
	for _, w := range workloads {
		if w.name() == name {
			return w
		}
	}
	return nil
}

// config is one invocation's settings: the pipeline's arguments.
type config struct {
	seed    int64
	seconds float64 // time box of a --workload run
	trace   bool
}

const (
	// fullRounds is the number of untraced rounds per workload of a full run.
	fullRounds = 5
	// minRounds is the floor under the time box: a median needs three values.
	minRounds = 3
	// selfcheckRuns is the number of runs per set and workload of -selfcheck,
	// each with another seed: what the pipeline takes its quartiles over.
	selfcheckRuns = 10
)

// outDir receives result.json, the traces and the rounds' scratch logs. It is
// relative to the root of the checkout, where run.sh starts the program.
const outDir = "bench/out"

func main() {
	var (
		cfg       config
		name      = flag.String("workload", "", "run one workload for -seconds and print one JSON result line (the pipeline's form)")
		trace     = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of traced rounds")
		selfcheck = flag.Bool("selfcheck", false, "run the benchmark as two sets of runs and fail if they disagree by more than a bound")
		compare   = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		oneRound  = flag.Bool("one-round", false, "internal: run one round of -workload in this process and print it as JSON")
		verify    = flag.Bool("verify", false, "internal, with -one-round: run the correctness checks too")
	)
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the program under test sees only the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "with -workload: start no round that would end after this many seconds")
	flag.Parse()
	cfg.trace = *trace != 0

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: -compare old.json new.json")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *selfcheck:
		err = selfCheck(os.Stdout, cfg)
	case *name != "":
		w := workloadByName(*name)
		switch {
		case w == nil:
			err = fmt.Errorf("unknown workload %q", *name)
		case *oneRound:
			err = roundChild(w, cfg, *verify)
		default:
			err = runOne(w, cfg)
		}
	default:
		err = runAll(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// tmpRoot creates the directory the rounds' logs live in. It sits under the
// output directory — inside the checkout, on the same filesystem every run.
func tmpRoot() (string, error) {
	dir := filepath.Join(outDir, "tmp")
	return dir, os.MkdirAll(dir, 0o755)
}

// summary is one metric over a run's rounds.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := summary{Min: math.Inf(1), Max: math.Inf(-1), N: len(xs)}
	for _, x := range xs {
		s.Min, s.Max = min(s.Min, x), max(s.Max, x)
	}
	s.Median = median(append([]float64(nil), xs...))
	return s
}

// runStats accumulates one workload's rounds.
type runStats struct {
	w        workload
	e2e      map[string][]float64 // untraced rounds
	layer    map[string][]float64 // traced rounds
	exact    map[string]float64   // from the first round
	tracedPS []float64            // epochs_per_s of traced rounds
	ops      int
	failed   int
	problems []string
	passSec  []float64
	epochs   int
}

func newRunStats(w workload) *runStats {
	return &runStats{w: w, e2e: map[string][]float64{}, layer: map[string][]float64{}}
}

func (rs *runStats) add(r *roundResult, traced bool) {
	rs.ops += r.Ops
	rs.failed += r.Failed
	rs.problems = append(rs.problems, r.Problems...)
	rs.passSec = append(rs.passSec, r.PassSec)
	rs.epochs = r.Epochs
	if rs.exact == nil {
		rs.exact = r.Exact
	} else {
		// Rounds of one run share a seed: their exact counts must agree.
		for k, v := range r.Exact {
			if rs.exact[k] != v {
				rs.failed++
				rs.problems = append(rs.problems, fmt.Sprintf("exact count %s changed between rounds of one seed: %v then %v", k, rs.exact[k], v))
			}
		}
	}
	if !traced {
		for k, v := range r.E2E {
			rs.e2e[k] = append(rs.e2e[k], v)
		}
		return
	}
	rs.tracedPS = append(rs.tracedPS, r.E2E["epochs_per_s"])
	for k, v := range r.Layer {
		rs.layer[k] = append(rs.layer[k], v)
	}
}

// layerSummary returns the traced rounds' per-layer medians, with the
// tracing overhead filled in from the untraced rounds' throughput.
func (rs *runStats) layerSummary() map[string]summary {
	out := map[string]summary{}
	for _, d := range perLayer {
		out[d.Name] = summarize(rs.layer[d.Name])
	}
	if un, tr := summarize(rs.e2e["epochs_per_s"]), summarize(rs.tracedPS); un.N > 0 && tr.N > 0 {
		out["bench.trace_overhead_pct"] = summary{Median: 100 * (un.Median - tr.Median) / un.Median, N: tr.N}
	}
	return out
}

// round runs one round of the workload in a child process and adds it to
// the run. A round is fresh state, and in Go that means a fresh process: the
// checkpoint layers keep process-wide pools (clear-sets, encoders), so a
// second round in the same process starts with another heap and another GC
// rhythm than the first, and a run's rounds would not be comparable.
func (rs *runStats) round(cfg config, traced, verify bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-one-round",
		"-workload", rs.w.name(),
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-trace", trace,
		"-verify="+strconv.FormatBool(verify))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s round: %w", rs.w.name(), err)
	}
	var r roundResult
	if err := json.Unmarshal(lastLine(out), &r); err != nil {
		return fmt.Errorf("%s round: unreadable result: %w", rs.w.name(), err)
	}
	rs.add(&r, traced)
	return nil
}

func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

// roundChild is the child side of round: one round in this process, its
// result as one JSON line, its trace (if any) in the output directory.
func roundChild(w workload, cfg config, verify bool) error {
	tmp, err := tmpRoot()
	if err != nil {
		return err
	}
	r, err := runRound(w, roundOpts{seed: cfg.seed, scale: 1, traced: cfg.trace, verify: verify, tmpRoot: tmp})
	if err != nil {
		return err
	}
	if r.tr != nil {
		if err := r.tr.write(filepath.Join(outDir, "trace-"+w.name()+".json"), w.name(), cfg.seed); err != nil {
			return err
		}
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runOne is the pipeline's form: one workload, rounds until the time box is
// spent, one JSON object on the last line of standard output.
func runOne(w workload, cfg config) error {
	rs := newRunStats(w)
	start := nowNs()
	for n := 0; ; n++ {
		elapsed := float64(nowNs()-start) / 1e9
		if n >= minRounds && elapsed+elapsed/float64(n) > cfg.seconds {
			break
		}
		// Round 1 is untraced and verified in either mode; a traced run then
		// traces every later round and compares their throughput with it.
		if err := rs.round(cfg, cfg.trace && n > 0, n == 0); err != nil {
			return err
		}
	}
	printWorkload(os.Stdout, rs, cfg.trace)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rs.failed == 0, Attempted: rs.ops, Failed: rs.failed, Metrics: map[string]value{}}
	if cfg.trace {
		layer := rs.layerSummary()
		for _, d := range perLayer {
			out.Metrics[d.Name] = value{Value: layer[d.Name].Median, Unit: d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			out.Metrics[d.Name] = value{Value: summarize(rs.e2e[d.Name]).Median, Unit: d.Unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if rs.failed > 0 {
		return fmt.Errorf("%s: %d failed ops: %s", w.name(), rs.failed, strings.Join(rs.problems, "; "))
	}
	return nil
}

// runAll is the full benchmark from one process: fullRounds untraced rounds
// per workload, interleaved round-robin so each workload's rounds span the
// whole run (slow spells on a shared box last tens of seconds), then one
// traced round per workload.
func runAll(cfg config) error {
	all := make([]*runStats, len(workloads))
	for i, w := range workloads {
		all[i] = newRunStats(w)
	}
	for r := 0; r < fullRounds; r++ {
		for _, rs := range all {
			if err := rs.round(cfg, false, r == 0); err != nil {
				return err
			}
		}
	}
	for _, rs := range all {
		if err := rs.round(cfg, true, false); err != nil {
			return err
		}
	}
	rep := newReport(cfg.seed, fullRounds)
	failed := 0
	for _, rs := range all {
		printWorkload(os.Stdout, rs, true)
		rep.Workloads = append(rep.Workloads, rs.report())
		failed += rs.failed
	}
	path := filepath.Join(outDir, "result.json")
	if err := rep.write(path); err != nil {
		return err
	}
	fmt.Printf("\nresult written to %s (gomaxprocs=%d num_cpu=%d %s)\n", path, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	if failed > 0 {
		return fmt.Errorf("%d failed ops", failed)
	}
	return nil
}
