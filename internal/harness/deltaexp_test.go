package harness

import (
	"testing"

	"ickpt/ckpt"
)

// TestDeltaSweepSmall smoke-tests the sweep wiring on a reduced grid budget:
// rows come back for every cell, byte ratios are sane, and the delta stream
// at low mutation actually carries delta records.
func TestDeltaSweepSmall(t *testing.T) {
	_, rep, err := DeltaSweep(Options{Repetitions: 2, Warmup: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(deltaSizes) * len(deltaFracs); len(rep.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(rep.Rows), want)
	}
	for _, r := range rep.Rows {
		if r.PlainBytes == 0 || r.DeltaBytes == 0 {
			t.Fatalf("cell %+v measured empty bodies", r)
		}
		if r.MutatedPct <= 10 && r.PayloadBytes >= 4096 {
			if r.DeltaRecords == 0 {
				t.Errorf("cell %dB/%.0f%% shipped no deltas", r.PayloadBytes, r.MutatedPct)
			}
			if r.ByteRatio > 0.5 {
				t.Errorf("cell %dB/%.0f%% byte ratio %.3f, want < 0.5",
					r.PayloadBytes, r.MutatedPct, r.ByteRatio)
			}
		}
	}
}

// BenchmarkDeltaEmit times one delta-encoding incremental checkpoint of the
// sweep fixture against the plain writer, for profiling the emit path.
func BenchmarkDeltaEmit(b *testing.B) {
	for _, delta := range []bool{false, true} {
		name := "plain"
		if delta {
			name = "delta"
		}
		b.Run(name, func(b *testing.B) {
			blobs := buildDeltaBlobs(65536, 1)
			var opts []ckpt.WriterOption
			if delta {
				opts = append(opts, ckpt.WithDeltaEncoding(0))
			}
			wr := ckpt.NewWriter(opts...)
			take := func(mode ckpt.Mode) {
				wr.Start(mode)
				for _, bl := range blobs {
					if err := wr.Checkpoint(bl); err != nil {
						b.Fatal(err)
					}
				}
				if _, _, err := wr.Finish(); err != nil {
					b.Fatal(err)
				}
			}
			take(ckpt.Full)
			rng := newDeltaRng(2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				mutateDeltaBlobs(blobs, 0.01, rng)
				b.StartTimer()
				take(ckpt.Incremental)
			}
		})
	}
}
