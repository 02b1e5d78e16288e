package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"text/tabwriter"
)

// reportSchema versions the result file's layout.
const reportSchema = 1

// report is the benchmark's own output file: what -compare reads and what
// baseline.json holds.
type report struct {
	Schema     int              `json:"schema"`
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NumCPU     int              `json:"num_cpu"`
	Seed       int64            `json:"seed"`
	Rounds     int              `json:"rounds"`
	Workloads  []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string                  `json:"name"`
	Ops       int                     `json:"ops"`
	FailedOps int                     `json:"failed_ops"`
	Epochs    int                     `json:"epochs_per_pass"`
	PassSec   summary                 `json:"pass_s"`
	EndToEnd  map[string]metricReport `json:"end_to_end"`
	PerLayer  map[string]metricReport `json:"per_layer"`
}

type metricReport struct {
	summary
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound,omitempty"`
	Exact bool    `json:"exact,omitempty"`
}

func newReport(seed int64, rounds int) *report {
	return &report{
		Schema:     reportSchema,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seed:       seed,
		Rounds:     rounds,
	}
}

func (rs *runStats) report() workloadReport {
	wr := workloadReport{
		Name: rs.w.name(), Ops: rs.ops, FailedOps: rs.failed, Epochs: rs.epochs,
		PassSec:  summarize(rs.passSec),
		EndToEnd: map[string]metricReport{},
		PerLayer: map[string]metricReport{},
	}
	for _, d := range endToEnd {
		wr.EndToEnd[d.Name] = metricReport{summary: summarize(rs.e2e[d.Name]), Unit: d.Unit, Bound: d.Bound}
	}
	layer := rs.layerSummary()
	for _, d := range perLayer {
		wr.PerLayer[d.Name] = metricReport{summary: layer[d.Name], Unit: d.Unit, Exact: d.Exact}
	}
	return wr
}

func (r *report) write(path string) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %d, this build reads %d", path, r.Schema, reportSchema)
	}
	return &r, nil
}

// printWorkload prints every metric of one workload by name, with unit, n
// and bound.
func printWorkload(out io.Writer, rs *runStats, withLayers bool) {
	fmt.Fprintf(out, "\n== %s: %s\n", rs.w.name(), rs.w.why())
	ps := summarize(rs.passSec)
	fmt.Fprintf(out, "ops=%d failed_ops=%d epochs_per_pass=%d pass_s=%.2f [%.2f..%.2f]\n",
		rs.ops, rs.failed, rs.epochs, ps.Median, ps.Min, ps.Max)
	for _, p := range rs.problems {
		fmt.Fprintf(out, "FAILED: %s\n", p)
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tmedian\tmin\tmax\tn\tunit\tbound")
	for _, d := range endToEnd {
		s := summarize(rs.e2e[d.Name])
		if s.N == 0 {
			continue
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%.6g\t%.6g\t%d\t%s\t%g\n", d.Name, s.Median, s.Min, s.Max, s.N, d.Unit, d.Bound)
	}
	if withLayers {
		layer := rs.layerSummary()
		for _, d := range perLayer {
			s := layer[d.Name]
			if s.N == 0 {
				continue
			}
			kind := "sampled"
			if d.Exact {
				kind = "exact"
			}
			fmt.Fprintf(tw, "%s\t%.6g\t%.6g\t%.6g\t%d\t%s\t%s\n", d.Name, s.Median, s.Min, s.Max, s.N, d.Unit, kind)
		}
	}
	tw.Flush()
}

// worsening is how much worse b is than a, as a share of a, in the metric's
// own direction; negative when b is better.
func worsening(better string, a, b float64) float64 {
	d := ratio(b-a, math.Abs(a))
	if better == "higher" {
		return -d
	}
	return d
}

// compareFiles prints one row per workload × metric of two result files and
// fails if any end-to-end metric got worse by more than its bound. A metric
// whose own rounds spread wider than the bound cannot be called unchanged:
// it is reported unresolved. Exact counts are compared exactly.
func compareFiles(out io.Writer, oldPath, newPath string) error {
	oldR, err := readReport(oldPath)
	if err != nil {
		return err
	}
	newR, err := readReport(newPath)
	if err != nil {
		return err
	}
	if oldR.Seed != newR.Seed {
		fmt.Fprintf(out, "note: seeds differ (%d vs %d); exact counts are not comparable\n", oldR.Seed, newR.Seed)
	}
	if oldR.GOMAXPROCS != newR.GOMAXPROCS || oldR.GoVersion != newR.GoVersion {
		fmt.Fprintf(out, "note: environments differ (%s gomaxprocs=%d vs %s gomaxprocs=%d)\n",
			oldR.GoVersion, oldR.GOMAXPROCS, newR.GoVersion, newR.GOMAXPROCS)
	}
	newBy := map[string]workloadReport{}
	for _, w := range newR.Workloads {
		newBy[w.Name] = w
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tchange\tbound\tverdict")
	var worse []string
	for _, ow := range oldR.Workloads {
		nw, ok := newBy[ow.Name]
		if !ok {
			worse = append(worse, ow.Name+" (missing)")
			continue
		}
		if nw.FailedOps > ow.FailedOps {
			worse = append(worse, ow.Name+"/failed_ops")
			fmt.Fprintf(tw, "%s\tfailed_ops\t%d\t%d\t\t\tworse\n", ow.Name, ow.FailedOps, nw.FailedOps)
		}
		for _, d := range endToEnd {
			o, n := ow.EndToEnd[d.Name], nw.EndToEnd[d.Name]
			bound := o.Bound
			w := worsening(d.Better, o.Median, n.Median)
			verdict := "ok"
			switch {
			case w > bound:
				verdict = "worse"
				worse = append(worse, ow.Name+"/"+d.Name)
			case spreadOf(o.summary) > bound || spreadOf(n.summary) > bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.1f%%\t%s\n", ow.Name, d.Name, o.Median, n.Median, 100*w, 100*bound, verdict)
		}
		for _, d := range perLayer {
			o, n := ow.PerLayer[d.Name], nw.PerLayer[d.Name]
			if d.Exact && o.Median != n.Median {
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t\t\tcount differs\n", ow.Name, d.Name, o.Median, n.Median)
			}
		}
	}
	tw.Flush()
	if len(worse) > 0 {
		return fmt.Errorf("worse than the bound allows: %s", strings.Join(worse, ", "))
	}
	return nil
}

// spreadOf is a run's own range as a share of its median.
func spreadOf(s summary) float64 { return ratio(s.Max-s.Min, math.Abs(s.Median)) }
