package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ickpt/ckpt"
	"ickpt/stablelog"
)

// smokeScale runs every workload at 1/50 of the benchmark's size.
const smokeScale = 0.02

func smokeRound(t *testing.T, w workload, o roundOpts) *roundResult {
	t.Helper()
	o.scale, o.tmpRoot = smokeScale, t.TempDir()
	r, err := runRound(w, o)
	if err != nil {
		t.Fatalf("%s: %v", w.name(), err)
	}
	return r
}

// benchmarkFile is BENCHMARK.json, the pipeline's description of this
// benchmark.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatches holds BENCHMARK.json and the tables in metrics.go
// together: same workloads, same metric names, units, directions and bounds.
func TestBenchmarkFileMatches(t *testing.T) {
	b := readBenchmarkFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := b.Workloads[i]; got.Name != w.name() || got.Why != w.why() {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, got.Name, got.Why, w.name(), w.why())
		}
		if !name.MatchString(w.name()) || len(w.why()) > 200 || strings.Contains(w.why(), "\n") {
			t.Errorf("workload %q breaks the naming rules", w.name())
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the benchmark %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the benchmark %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
	}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the benchmark %+v", i, got, d)
		}
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmoke runs every workload at 1/50 size, one verified untraced round
// and one traced round, and checks what the full benchmark promises: every
// metric emitted once with a finite value, verification and reconciliation
// pass, and exact counts repeat for a seed and move with it.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name(), func(t *testing.T) {
			plain := smokeRound(t, w, roundOpts{seed: 1, verify: true})
			traced := smokeRound(t, w, roundOpts{seed: 1, traced: true, verify: true})
			for _, r := range []*roundResult{plain, traced} {
				if r.Failed != 0 {
					t.Fatalf("%d failed ops: %v", r.Failed, r.Problems)
				}
			}
			rs := newRunStats(w)
			rs.add(plain, false)
			rs.add(traced, true)
			if rs.failed != 0 {
				t.Fatalf("same seed, different exact counts: %v", rs.problems)
			}
			rep := rs.report()
			if len(rep.EndToEnd) != len(endToEnd) || len(rep.PerLayer) != len(perLayer) {
				t.Fatalf("report has %d+%d metrics, want %d+%d", len(rep.EndToEnd), len(rep.PerLayer), len(endToEnd), len(perLayer))
			}
			for _, d := range endToEnd {
				m, ok := rep.EndToEnd[d.Name]
				if !ok || m.N != 1 || math.IsNaN(m.Median) || math.IsInf(m.Median, 0) || m.Median == 0 {
					t.Errorf("%s: want one finite non-zero value, got %+v (present=%v)", d.Name, m, ok)
				}
			}
			for _, d := range perLayer {
				m, ok := rep.PerLayer[d.Name]
				if !ok || m.N != 1 || math.IsNaN(m.Median) || math.IsInf(m.Median, 0) {
					t.Errorf("%s: want one finite value, got %+v (present=%v)", d.Name, m, ok)
				}
			}
			if len(traced.Layer) != len(perLayer)-1 { // the run adds trace_overhead_pct
				t.Errorf("traced round emitted %d per-layer metrics, want %d", len(traced.Layer), len(perLayer)-1)
			}
			if w.name() != "blob-dense" && traced.Layer["ckpt.shadow.delta_records_per_epoch"] != 0 {
				t.Errorf("delta records on a workload below the delta floor")
			}
			if w.name() == "blob-dense" && traced.Layer["ckpt.shadow.delta_records_per_epoch"] == 0 {
				t.Errorf("no delta records on the delta workload")
			}

			other := smokeRound(t, w, roundOpts{seed: 2})
			if other.Failed != 0 {
				t.Fatalf("seed 2: %d failed ops: %v", other.Failed, other.Problems)
			}
			same := true
			for k, v := range plain.Exact {
				if other.Exact[k] != v {
					same = false
				}
			}
			if same {
				t.Errorf("exact counts do not depend on the seed: %v", plain.Exact)
			}
		})
	}
}

// TestBrokenRecoveryCaught flips one byte in the log copy the durability
// check recovers; the round must report it as a failed op.
func TestBrokenRecoveryCaught(t *testing.T) {
	for _, w := range workloads {
		r := smokeRound(t, w, roundOpts{seed: 1, verify: true, sabotage: true})
		if r.Failed == 0 {
			t.Errorf("%s: a flipped byte in the recovered log went unnoticed", w.name())
		}
	}
}

func TestCompare(t *testing.T) {
	rs := newRunStats(workloads[0])
	rs.add(smokeRound(t, workloads[0], roundOpts{seed: 1}), false)
	dir := t.TempDir()
	write := func(name string, scale float64) string {
		rep := newReport(1, 1)
		wr := rs.report()
		m := wr.EndToEnd["recover_s"]
		m.Median *= scale
		wr.EndToEnd["recover_s"] = m
		rep.Workloads = append(rep.Workloads, wr)
		path := filepath.Join(dir, name)
		if err := rep.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("base.json", 1), write("same.json", 1), write("slow.json", 2)
	var out strings.Builder
	if err := compareFiles(&out, base, same); err != nil {
		t.Errorf("identical results compare as worse: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, base, slow); err == nil || !strings.Contains(out.String(), "worse") {
		t.Errorf("recover_s doubled and the comparison passed:\n%s", out.String())
	}
}

// TestSegmentHeaderLayout holds countfs.go's copy of stablelog's private
// segment header layout (size, magic, epoch offset) against the real thing.
func TestSegmentHeaderLayout(t *testing.T) {
	fs := newCountFS()
	path := filepath.Join(t.TempDir(), logName)
	l, err := stablelog.Create(path, stablelog.WithFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	body := make([]byte, 100)
	if _, err := l.Append(ckpt.Full, 7, body); err != nil {
		t.Fatal(err)
	}
	if fs.curEpoch != 7 {
		t.Errorf("epoch sniffed off the segment header = %d, want 7", fs.curEpoch)
	}
	seg := l.Segments()[0]
	if got, want := fileSize(path), seg.Offset+segmentHeaderSize+int64(seg.Length); got != want {
		t.Errorf("log ends at %d after one segment, want offset %d + header %d + body %d", got, seg.Offset, segmentHeaderSize, seg.Length)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}
