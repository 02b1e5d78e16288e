package harness_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"ickpt/ckpt"
	"ickpt/internal/harness"
	"ickpt/internal/minic"
	"ickpt/internal/synth"
)

// smallOpts keeps test runs fast; shapes, not absolute numbers, are
// asserted.
func smallOpts() harness.Options {
	return harness.Options{Structures: 60, Repetitions: 2, Warmup: 1, Seed: 7}
}

func TestMeasureSynthBasics(t *testing.T) {
	meas, err := harness.MeasureSynth(harness.SynthConfig{
		Shape:       synth.Shape{Structures: 50, ListLen: 5, Kind: synth.Ints10},
		Mod:         synth.ModPattern{Percent: 100, ModifiableLists: 5},
		Engine:      harness.EngineVirtual,
		Seed:        1,
		Repetitions: 2,
	})
	if err != nil {
		t.Fatalf("MeasureSynth: %v", err)
	}
	if meas.NsPerCheckpoint <= 0 {
		t.Error("no time measured")
	}
	if meas.Modified != 50*5*5 {
		t.Errorf("modified = %d, want %d", meas.Modified, 50*5*5)
	}
	if meas.Bytes == 0 || meas.Stats.Recorded == 0 {
		t.Errorf("empty measurement: %+v", meas)
	}
}

func TestMeasureSynthTraversal(t *testing.T) {
	meas, err := harness.MeasureSynth(harness.SynthConfig{
		Shape:       synth.Shape{Structures: 30, ListLen: 3, Kind: synth.Ints1},
		Mod:         synth.ModPattern{Percent: 100, ModifiableLists: 5},
		Engine:      harness.EngineVirtual,
		Seed:        1,
		Repetitions: 2,
		Traversal:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if meas.Stats.Recorded != 0 {
		t.Errorf("traversal measurement recorded %d objects", meas.Stats.Recorded)
	}
	if meas.Stats.Visited == 0 {
		t.Error("traversal measurement visited nothing")
	}
}

func TestMeasureSynthEngineErrors(t *testing.T) {
	if _, err := harness.MeasureSynth(harness.SynthConfig{
		Shape:  synth.Shape{Structures: 1, ListLen: 1, Kind: synth.Ints1},
		Engine: "nope",
	}); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, err := harness.MeasureSynth(harness.SynthConfig{
		Shape:  synth.Shape{Structures: 1, ListLen: 1, Kind: synth.Ints1},
		Engine: harness.EngineCodegen,
		Mode:   ckpt.Full,
	}); err == nil {
		t.Error("codegen full mode accepted")
	}
}

// checkTable asserts structural well-formedness and returns all numeric
// cells.
func checkTable(t *testing.T, tbl *harness.Table, wantRows int) []float64 {
	t.Helper()
	if len(tbl.Rows) != wantRows {
		t.Fatalf("%s: %d rows, want %d", tbl.ID, len(tbl.Rows), wantRows)
	}
	var nums []float64
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Columns) {
			t.Fatalf("%s: row %v has %d cells, want %d", tbl.ID, row, len(row), len(tbl.Columns))
		}
		for _, cell := range row[1:] {
			if cell == "-" {
				continue
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("%s: non-numeric cell %q", tbl.ID, cell)
			}
			if v <= 0 {
				t.Errorf("%s: non-positive cell %v", tbl.ID, v)
			}
			nums = append(nums, v)
		}
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(buf.String(), tbl.ID) {
		t.Error("rendering missing table id")
	}
	buf.Reset()
	if err := tbl.CSV(&buf); err != nil {
		t.Fatalf("CSV: %v", err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != wantRows+1 {
		t.Errorf("CSV has %d lines, want %d", lines, wantRows+1)
	}
	return nums
}

func TestFig7(t *testing.T) {
	tbl, err := harness.Fig7(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, 4) // kinds x lengths
}

func TestFig8(t *testing.T) {
	tbl, err := harness.Fig8(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, 4)
}

func TestFig9(t *testing.T) {
	tbl, err := harness.Fig9(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, 6) // kinds x percents
}

func TestFig10(t *testing.T) {
	tbl, err := harness.Fig10(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, 12) // kinds x lengths x percents
}

func TestFig11(t *testing.T) {
	tbl, err := harness.Fig11(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, 12) // tiers x kinds x percents
}

func TestTable2(t *testing.T) {
	tbl, err := harness.Table2(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, 8) // engines x lists
}

func TestAblations(t *testing.T) {
	opts := smallOpts()
	if tbl, err := harness.AblationDispatch(opts); err != nil {
		t.Errorf("AblationDispatch: %v", err)
	} else if len(tbl.Rows) != 4 {
		t.Errorf("AblationDispatch rows = %d", len(tbl.Rows))
	}
	if tbl, err := harness.AblationFlags(opts); err != nil {
		t.Errorf("AblationFlags: %v", err)
	} else if len(tbl.Rows) != 4 {
		t.Errorf("AblationFlags rows = %d", len(tbl.Rows))
	}
	if tbl, err := harness.AblationDepth(opts); err != nil {
		t.Errorf("AblationDepth: %v", err)
	} else if len(tbl.Rows) != 5 {
		t.Errorf("AblationDepth rows = %d", len(tbl.Rows))
	}
	if tbl, err := harness.AblationAsync(opts); err != nil {
		t.Errorf("AblationAsync: %v", err)
	} else if len(tbl.Rows) != 3 {
		t.Errorf("AblationAsync rows = %d", len(tbl.Rows))
	}
	if tbl, err := harness.AblationSize(opts); err != nil {
		t.Errorf("AblationSize: %v", err)
	} else {
		if len(tbl.Rows) != 4 {
			t.Fatalf("AblationSize rows = %d", len(tbl.Rows))
		}
		// Sizes are deterministic: incremental bodies shrink with the
		// modified percentage and stay below full.
		for _, row := range tbl.Rows {
			var v [4]float64
			for i := 0; i < 4; i++ {
				f, err := strconv.ParseFloat(row[i+1], 64)
				if err != nil {
					t.Fatalf("bad size cell %q", row[i+1])
				}
				v[i] = f
			}
			if !(v[0] >= v[1] && v[1] > v[2] && v[2] > v[3]) {
				t.Errorf("sizes not decreasing: %v", row)
			}
		}
	}
}

func TestScaledImageProgram(t *testing.T) {
	src, err := harness.ScaledImageProgram(3)
	if err != nil {
		t.Fatal(err)
	}
	f, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("scaled program does not parse: %v", err)
	}
	base, err := harness.ScaledImageProgram(1)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := minic.Parse(base)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(f.Funcs), 3*len(bf.Funcs); got != want {
		t.Errorf("scaled funcs = %d, want %d", got, want)
	}
	if got, want := len(f.Globals), 3*len(bf.Globals); got != want {
		t.Errorf("scaled globals = %d, want %d", got, want)
	}
	// Renamed copies must not collide with the original.
	if _, _, err := harness.NewImageEngine(3); err != nil {
		t.Fatalf("NewImageEngine(3): %v", err)
	}
}

func TestTable1DSPWorkload(t *testing.T) {
	tbl, err := harness.Table1For(harness.DSPWorkload, 1)
	if err != nil {
		t.Fatalf("Table1For(dsp): %v", err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tbl.Rows))
	}
	// Incremental max size must stay below full size on this workload too.
	maxFull, err1 := strconv.ParseFloat(tbl.Rows[1][1], 64)
	maxIncr, err2 := strconv.ParseFloat(tbl.Rows[1][2], 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("bad size cells: %v %v", tbl.Rows[1][1], tbl.Rows[1][2])
	}
	if maxIncr >= maxFull {
		t.Errorf("dsp incremental max %v >= full %v", maxIncr, maxFull)
	}
}

func TestWorkloadByName(t *testing.T) {
	for _, name := range []string{"", "image", "dsp"} {
		if _, err := harness.WorkloadByName(name); err != nil {
			t.Errorf("WorkloadByName(%q) = %v", name, err)
		}
	}
	if _, err := harness.WorkloadByName("xyz"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestTable1Profile(t *testing.T) {
	tbl, err := harness.Table1Profile(1)
	if err != nil {
		t.Fatalf("Table1Profile: %v", err)
	}
	if len(tbl.Rows) < 6 {
		t.Fatalf("rows = %d, want >= 6", len(tbl.Rows))
	}
	// Per phase, recorded counts must be non-increasing and end at zero:
	// the convergence curve behind Table 1.
	var prevPhase string
	var prev float64
	var lastOfPhase float64
	for _, row := range tbl.Rows {
		phase := strings.Fields(row[0])[0]
		rec, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("bad recorded cell %q", row[2])
		}
		if phase == prevPhase && rec > prev {
			t.Errorf("recorded grew within phase %s: %v -> %v", phase, prev, rec)
		}
		prevPhase, prev = phase, rec
		lastOfPhase = rec
	}
	if lastOfPhase != 0 {
		t.Errorf("final iteration recorded %v, want 0", lastOfPhase)
	}
}

func TestTable1SmallScale(t *testing.T) {
	tbl, err := harness.Table1(1)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tbl.Rows))
	}
	get := func(row, col int) float64 {
		v, err := strconv.ParseFloat(tbl.Rows[row][col], 64)
		if err != nil {
			t.Fatalf("cell (%d,%d) = %q not numeric", row, col, tbl.Rows[row][col])
		}
		return v
	}
	// Row 1 is max checkpoint size. Columns: 1..3 BTA full/incr/spec,
	// 4..6 ETA. Shape assertions from the paper:
	// full checkpoints are much larger than incremental ones,
	maxFullBTA, maxIncrBTA, maxSpecBTA := get(1, 1), get(1, 2), get(1, 3)
	if maxIncrBTA >= maxFullBTA {
		t.Errorf("incremental max size %v >= full %v", maxIncrBTA, maxFullBTA)
	}
	// and specialized incremental writes the same bytes as incremental.
	if maxSpecBTA != maxIncrBTA {
		t.Errorf("spec max size %v != incr %v", maxSpecBTA, maxIncrBTA)
	}
	// Iterations match across strategies (row 4).
	for c := 1; c <= 3; c++ {
		if get(4, c) != get(4, 1) {
			t.Errorf("BTA iterations differ across strategies: %v", tbl.Rows[4])
		}
	}
	// The paper's ETA converges in ~3 iterations; ours must be >= 2.
	if get(4, 4) < 2 {
		t.Errorf("ETA iterations = %v, want >= 2", get(4, 4))
	}
}
