package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"text/tabwriter"
)

// selfCheck proves the benchmark repeats, the way the pipeline will ask: two
// sets of runs of the same code, A and B, each selfcheckRuns runs per
// workload with seeds 1, 2, …, every run its own child process in the
// pipeline's form. The sets alternate — A's run of a seed on every workload,
// then B's, then the next seed — so both meet the same spells of the machine
// and each set's spread holds whatever drift the whole self-check saw. For
// every workload × end-to-end metric it prints both set medians, their
// difference in the metric's direction, each set's quartile spread, and the
// bound; it fails if a spread (setup_s excepted) or a difference exceeds the
// bound.
func selfCheck(out io.Writer, cfg config) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// values[set][workload][metric] = one value per run
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for _, w := range workloads {
			values[set][w.name()] = map[string][]float64{}
		}
	}
	var longest float64
	for seed := 1; seed <= selfcheckRuns; seed++ {
		for set := range values {
			for _, w := range workloads {
				t0 := nowNs()
				m, err := childRun(exe, cfg, w.name(), int64(seed))
				if err != nil {
					return fmt.Errorf("set %c %s seed %d: %w", 'A'+set, w.name(), seed, err)
				}
				wall := float64(nowNs()-t0) / 1e9
				longest = max(longest, wall)
				fmt.Fprintf(out, "set %c %-16s seed %-3d %.1fs\n", 'A'+set, w.name(), seed, wall)
				for name, v := range m {
					values[set][w.name()][name] = append(values[set][w.name()][name], v)
				}
			}
		}
	}

	// Keep every run's values, for a closer look than the table gives.
	if raw, err := json.Marshal(values); err == nil {
		if err := os.WriteFile(filepath.Join(outDir, "selfcheck.json"), raw, 0o644); err != nil {
			return err
		}
	}

	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian A\tmedian B\tB vs A\tspread A\tspread B\tbound\tverdict")
	bad := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := values[0][w.name()][d.Name], values[1][w.name()][d.Name]
			ma, mb := median(append([]float64(nil), a...)), median(append([]float64(nil), b...))
			diff := worsening(d.Better, ma, mb)
			sa, sb := quartileSpread(a), quartileSpread(b)
			verdict := "ok"
			if math.Abs(diff) > d.Bound || (d.Name != "setup_s" && max(sa, sb) > d.Bound) {
				verdict = "FAIL"
				bad++
			} else if max(sa, sb, math.Abs(diff)) > d.Bound/3 && d.Name != "setup_s" {
				verdict = "tight" // passes, but not with the margin of a third of the bound
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%.2f%%\t%.1f%%\t%s\n",
				w.name(), d.Name, ma, mb, 100*diff, 100*sa, 100*sb, 100*d.Bound, verdict)
		}
	}
	tw.Flush()
	fmt.Fprintf(out, "longest run: %.1fs wall; %d runs per set and workload\n", longest, selfcheckRuns)
	if bad > 0 {
		return fmt.Errorf("%d workload × metric cells outside their bounds", bad)
	}
	return nil
}

// childRun runs one workload in the pipeline's form and returns the
// end-to-end metrics of its last output line.
func childRun(exe string, cfg config, workload string, seed int64) (map[string]float64, error) {
	cmd := exec.Command(exe,
		"--workload", workload,
		"--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"--trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var res struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lastLine(stdout), &res); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("run reported correct=%v failed=%d", res.Correct, res.Failed)
	}
	m := map[string]float64{}
	for name, v := range res.Metrics {
		m[name] = v.Value
	}
	return m, nil
}
