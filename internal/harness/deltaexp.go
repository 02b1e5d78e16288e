package harness

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ickpt/ckpt"
	"ickpt/wire"
)

// This file measures the sub-object delta encoding (ckpt.WithDeltaEncoding):
// an incremental record whose payload changed in a few places ships a
// copy/patch opcode stream against the previous committed payload instead of
// the whole payload. The sweep crosses payload size x mutated byte fraction
// and reports bytes/epoch and ns/checkpoint against a plain writer on a twin population. At low mutated
// fractions the byte ratio collapses toward the patch footprint; at 100% the
// adaptive limit (a delta must undercut ~3/4 of the payload) plus the churn
// backoff keep the time within noise of the baseline. Payloads at or below
// the configured minSize floor (deltaSweepMin) bypass shadowing entirely —
// the sub-floor grid rows exist to show that bypass costing nothing.

// deltaBlobType is the sweep fixture's type id.
var deltaBlobType = ckpt.TypeIDOf("harness.deltaBlob")

// deltaBlob is a flat fixed-width payload — the shape payload deltas exist
// for. Its width never changes, so every epoch pair is aligned and eligible
// for delta framing.
type deltaBlob struct {
	info ckpt.Info
	data []byte
}

func (b *deltaBlob) CheckpointInfo() *ckpt.Info    { return &b.info }
func (b *deltaBlob) CheckpointTypeID() ckpt.TypeID { return deltaBlobType }
func (b *deltaBlob) Record(e *wire.Encoder)        { e.BytesField(b.data) }
func (b *deltaBlob) Fold(*ckpt.Writer) error       { return nil }

// DeltaRow is one cell of the sweep.
type DeltaRow struct {
	// PayloadBytes is the fixed payload width of every blob in the cell.
	PayloadBytes int `json:"payload_bytes"`
	// MutatedPct is the fraction of each payload's bytes rewritten before
	// every incremental checkpoint, in percent.
	MutatedPct float64 `json:"mutated_pct"`
	// PlainBytes and DeltaBytes are the median incremental body sizes of the
	// plain and delta-encoding writers; ByteRatio is delta/plain.
	PlainBytes int     `json:"plain_bytes"`
	DeltaBytes int     `json:"delta_bytes"`
	ByteRatio  float64 `json:"byte_ratio"`
	// PlainNs and DeltaNs are the median incremental checkpoint times;
	// NsRatio is plain/delta (>= 1 means the delta path is no slower).
	PlainNs float64 `json:"plain_ns"`
	DeltaNs float64 `json:"delta_ns"`
	NsRatio float64 `json:"ns_ratio"`
	// DeltaRecords and Records count the last measured body's delta records
	// and total records.
	DeltaRecords int `json:"delta_records"`
	Records      int `json:"records"`
	// Wins, Losses and Skipped are the shadow cache's cumulative counters
	// after the cell: delta attempts that undercut the limit, attempts that
	// aborted, and emits the churn backoff left undiffed.
	Wins    int `json:"wins"`
	Losses  int `json:"losses"`
	Skipped int `json:"skipped"`
}

// DeltaReport is the machine-readable result of the sweep (BENCH_delta.json).
type DeltaReport struct {
	Experiment string     `json:"experiment"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	NumCPU     int        `json:"num_cpu"`
	Blobs      int        `json:"blobs"`
	Rows       []DeltaRow `json:"rows"`
}

var (
	// deltaSizes is the payload-width grid.
	deltaSizes = []int{256, 4096, 65536}
	// deltaFracs is the mutated-byte-fraction grid.
	deltaFracs = []float64{0.01, 0.10, 0.50, 1.0}
)

// deltaBlobCount is the population size per cell: enough records that the
// body framing amortizes, few enough that the 64 KiB row stays in cache-range
// of a real working set.
const deltaBlobCount = 32

// deltaSweepMin is the shadow-cache size floor the sweep configures
// (ckpt.WithDeltaEncoding's minSize): payloads at or below it bypass
// shadowing entirely — no copy, no diff, no hash. It sits between the 256 B
// and 4 KiB grid rows on purpose, so the small-payload cells measure the
// bypass (ratios ~1.0) rather than delta overhead a deployment would never
// opt into.
const deltaSweepMin = 512

// buildDeltaBlobs returns a deterministic population of fixed-width blobs.
func buildDeltaBlobs(size int, seed int64) []*deltaBlob {
	d := ckpt.NewDomain()
	rng := rand.New(rand.NewSource(seed))
	blobs := make([]*deltaBlob, deltaBlobCount)
	for i := range blobs {
		b := &deltaBlob{info: ckpt.NewInfo(d), data: make([]byte, size)}
		rng.Read(b.data)
		blobs[i] = b
	}
	return blobs
}

// mutateDeltaBlobs rewrites frac of every blob's bytes at rng-scattered
// offsets and marks the blobs modified. Scattered single-byte rewrites are
// the delta encoder's hardest profitable case: every changed byte starts its
// own literal run.
func mutateDeltaBlobs(blobs []*deltaBlob, frac float64, rng *rand.Rand) {
	for _, b := range blobs {
		n := int(frac * float64(len(b.data)))
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			b.data[rng.Intn(len(b.data))] ^= byte(1 + rng.Intn(255))
		}
		b.info.Mark()
	}
}

// deltaCell is one writer/population side of a twin measurement.
type deltaCell struct {
	wr    *ckpt.Writer
	blobs []*deltaBlob
	rng   *rand.Rand // per-side rng: twins replay the same mutation schedule
	times []float64
	sizes []float64
	last  []byte
}

func (c *deltaCell) take(mode ckpt.Mode) ([]byte, time.Duration, error) {
	c.wr.Start(mode)
	t0 := time.Now()
	for _, b := range c.blobs {
		if err := c.wr.Checkpoint(b); err != nil {
			return nil, 0, err
		}
	}
	body, _, err := c.wr.Finish()
	return body, time.Since(t0), err
}

func (c *deltaCell) step(frac float64, record bool) error {
	mutateDeltaBlobs(c.blobs, frac, c.rng)
	body, dt, err := c.take(ckpt.Incremental)
	if err != nil {
		return err
	}
	if record {
		c.times = append(c.times, float64(dt.Nanoseconds()))
		c.sizes = append(c.sizes, float64(len(body)))
		c.last = append(c.last[:0], body...)
	}
	return nil
}

// measureDeltaCell runs the plain and delta writers over twin populations in
// lockstep: a Full epoch seeds each stream, then every incremental epoch
// mutates both populations with the same schedule and times both takes
// back-to-back, alternating which side goes first. Interleaving keeps
// machine drift (scheduler, frequency scaling) from landing on one side of
// the ratio; the epoch's collector debt is flushed before the timed pair, so
// background GC cycles seeded by earlier epochs cannot skew the medians —
// allocation costs themselves (shadow staging) stay inside the timed takes.
func measureDeltaCell(cells [2]*deltaCell, frac float64, warmup, reps int) error {
	for _, c := range cells {
		if _, _, err := c.take(ckpt.Full); err != nil {
			return err
		}
	}
	for i := 0; i < warmup+reps; i++ {
		runtime.GC()
		first, second := cells[i%2], cells[1-i%2]
		if err := first.step(frac, i >= warmup); err != nil {
			return err
		}
		if err := second.step(frac, i >= warmup); err != nil {
			return err
		}
	}
	return nil
}

// DeltaSweep measures the delta-encoding writer against a plain writer on
// twin populations across the payload-size x mutated-fraction grid. Twin populations replay the same mutation schedule (same seed), so
// both writers see identical payload trajectories.
func DeltaSweep(opts Options) (*Table, *DeltaReport, error) {
	opts = opts.withDefaults()
	rep := &DeltaReport{
		Experiment: "delta",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Blobs:      deltaBlobCount,
	}
	t := &Table{
		ID:    "delta",
		Title: "Sub-object delta encoding: patch records vs full payloads",
		Columns: []string{"payload", "mutated", "plain (KB)", "delta (KB)",
			"byte ratio", "plain (ms)", "delta (ms)", "ns ratio", "deltas/recs"},
		Notes: []string{
			fmt.Sprintf("%d fixed-width blobs per cell; mutations are rng-scattered single-byte rewrites", deltaBlobCount),
			"byte ratio = delta body / plain body (lower is better); ns ratio = plain time / delta time (>= 1: delta path no slower)",
			fmt.Sprintf("minSize floor = %d B: smaller payloads bypass shadowing, so sub-floor cells measure the bypass", deltaSweepMin),
		},
	}

	for _, size := range deltaSizes {
		// A 32-record epoch over small payloads runs in single-digit
		// microseconds — too short for one take to resolve a few percent
		// against scheduler and timer noise. Scale the sample count up as
		// payloads shrink (the largest cells keep the configured count), so
		// every cell's median rests on enough samples; the backoff's rare
		// restage/probe epochs stay a fixed small fraction of any window.
		reps := opts.Repetitions
		if scale := deltaSizes[len(deltaSizes)-1] / size; scale > 1 {
			if scale > 8 {
				scale = 8
			}
			reps *= scale
		}
		for _, frac := range deltaFracs {
			seed := opts.Seed + int64(size) + int64(frac*1000)

			plain := &deltaCell{
				wr:    ckpt.NewWriter(),
				blobs: buildDeltaBlobs(size, seed),
				rng:   rand.New(rand.NewSource(seed)),
			}
			wd := ckpt.NewWriter(ckpt.WithDeltaEncoding(deltaSweepMin))
			delta := &deltaCell{
				wr:    wd,
				blobs: buildDeltaBlobs(size, seed),
				rng:   rand.New(rand.NewSource(seed)),
			}
			if err := measureDeltaCell([2]*deltaCell{plain, delta}, frac, opts.Warmup, reps); err != nil {
				return nil, nil, err
			}
			plainNs, plainBytes := median(plain.times), int(median(plain.sizes))
			deltaNs, deltaBytes := median(delta.times), int(median(delta.sizes))

			info, err := ckpt.InspectBodyKinds(delta.last, nil)
			if err != nil {
				return nil, nil, err
			}
			sst := wd.Shadow().Stats()
			row := DeltaRow{
				PayloadBytes: size,
				MutatedPct:   frac * 100,
				PlainBytes:   plainBytes,
				DeltaBytes:   deltaBytes,
				PlainNs:      plainNs,
				DeltaNs:      deltaNs,
				DeltaRecords: info.Deltas,
				Records:      info.Records,
				Wins:         sst.Wins,
				Losses:       sst.Losses,
				Skipped:      sst.SkippedEmits,
			}
			if plainBytes > 0 {
				row.ByteRatio = float64(deltaBytes) / float64(plainBytes)
			}
			if deltaNs > 0 {
				row.NsRatio = plainNs / deltaNs
			}
			rep.Rows = append(rep.Rows, row)
			t.AddRow(
				fmt.Sprintf("%d B", size),
				fmt.Sprintf("%.0f%%", row.MutatedPct),
				fmt.Sprintf("%.1f", float64(plainBytes)/1024),
				fmt.Sprintf("%.1f", float64(deltaBytes)/1024),
				fmt.Sprintf("%.3f", row.ByteRatio),
				fmt.Sprintf("%.3f", plainNs/1e6),
				fmt.Sprintf("%.3f", deltaNs/1e6),
				fmt.Sprintf("%.2f", row.NsRatio),
				fmt.Sprintf("%d/%d", info.Deltas, info.Records),
			)
		}
	}
	return t, rep, nil
}
