package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkEncodeUvarint(b *testing.B) {
	e := NewEncoder(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if e.Len() > 1<<15 {
			e.Reset()
		}
		e.Uvarint(uint64(i))
	}
}

func BenchmarkEncodeRecordPayload(b *testing.B) {
	// A representative Element10 payload: ten varints plus a child id.
	e := NewEncoder(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if e.Len() > 1<<15 {
			e.Reset()
		}
		for j := 0; j < 10; j++ {
			e.Varint(int64(i + j))
		}
		e.Uvarint(uint64(i))
	}
}

func BenchmarkDecodeRecordPayload(b *testing.B) {
	e := NewEncoder(256)
	for j := 0; j < 10; j++ {
		e.Varint(int64(j * 1000))
	}
	e.Uvarint(424242)
	buf := e.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDecoder(buf)
		for j := 0; j < 10; j++ {
			d.Varint()
		}
		d.Uvarint()
		if d.Err() != nil {
			b.Fatal(d.Err())
		}
	}
}

// encodeBatch is the shard-writer workload both pooled-encoder benchmarks
// share: frame a few hundred small records into the encoder.
func encodeBatch(e *Encoder) {
	for r := 0; r < 256; r++ {
		e.Uvarint(uint64(r))
		for j := 0; j < 4; j++ {
			e.Varint(int64(r * j))
		}
	}
}

// BenchmarkEncoderFresh allocates a new encoder per fold, the pattern the
// pool replaces: every iteration re-grows the buffer from nothing.
func BenchmarkEncoderFresh(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEncoder(0)
		encodeBatch(e)
		_ = e.Bytes()
	}
}

// BenchmarkEncoderPooled draws the encoder from the package pool, the way
// parfold workers do (wire.GetEncoder / wire.PutEncoder): after warm-up the
// grown buffer is reused and the loop allocates nothing.
func BenchmarkEncoderPooled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := GetEncoder()
		encodeBatch(e)
		_ = e.Bytes()
		PutEncoder(e)
	}
}

// TestPooledEncoderAllocsZero is the regression guard behind the benchmark
// pair: a steady-state Get/encode/Put cycle must not allocate.
func TestPooledEncoderAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation randomly bypasses sync.Pool caching")
	}
	for i := 0; i < 3; i++ { // warm the pool
		e := GetEncoder()
		encodeBatch(e)
		PutEncoder(e)
	}
	avg := testing.AllocsPerRun(100, func() {
		e := GetEncoder()
		encodeBatch(e)
		PutEncoder(e)
	})
	if avg != 0 {
		t.Fatalf("pooled encoder cycle allocates %v per run, want 0", avg)
	}
}

func BenchmarkEncodeString(b *testing.B) {
	e := NewEncoder(1 << 16)
	s := "a moderately sized string payload"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if e.Len() > 1<<15 {
			e.Reset()
		}
		e.String(s)
	}
}

// deltaShape is one (base, next) pair of BenchmarkAppendDeltaShapes.
type deltaShape struct {
	name       string
	base, next []byte
}

// deltaShapes returns the payload shapes the delta encoder is sized on: the
// blob-dense benchmark workload's record (16 KB, 8 runs of 102 rewritten
// bytes), the harness delta sweep's cells (rng-scattered single-byte edits at
// 1% and 10% of 4 KB and 64 KB) and a fully churned payload, which loses at
// the 3/4 limit.
func deltaShapes() []deltaShape {
	rng := rand.New(rand.NewSource(1))
	fresh := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	scattered := func(n int, frac float64) deltaShape {
		base := fresh(n)
		next := bytes.Clone(base)
		for k := int(float64(n) * frac); k > 0; k-- {
			next[rng.Intn(n)] ^= byte(1 + rng.Intn(255))
		}
		return deltaShape{fmt.Sprintf("scattered/%dB@%g%%", n, frac*100), base, next}
	}
	blob := fresh(16 << 10)
	blobNext := bytes.Clone(blob)
	for r := 0; r < 8; r++ {
		off := r * (len(blob) / 8)
		rng.Read(blobNext[off : off+102])
	}
	churn := fresh(16 << 10)
	return []deltaShape{
		{"blob-dense/16384B@8x102", blob, blobNext},
		scattered(4<<10, 0.01),
		scattered(4<<10, 0.10),
		scattered(64<<10, 0.01),
		scattered(64<<10, 0.10),
		{"churn/16384B@100%", churn, fresh(16 << 10)},
	}
}

// BenchmarkAppendDeltaShapes times one AppendDeltaHashed per shape at the
// emitter's 3/4 limit. It is the loop matchWords and the block sizes were
// picked on: the blob-dense shape wants equal stretches skipped by blocks, the
// scattered cells want short matches to stay in the word loop.
func BenchmarkAppendDeltaShapes(b *testing.B) {
	for _, sh := range deltaShapes() {
		b.Run(sh.name, func(b *testing.B) {
			var e Encoder
			hash := DeltaBaseHash(sh.base)
			b.SetBytes(int64(len(sh.next)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Reset()
				sinkBool = AppendDeltaHashed(&e, sh.base, hash, sh.next, len(sh.next)*3/4)
			}
		})
	}
}

var (
	sinkBool bool
	sinkHash uint32
)

// BenchmarkDeltaBaseHash times the base fingerprint per 16 KB payload, one
// chain at a time and four interleaved, over four payloads that stay in L1/L2
// ("hot") and over a 3 MB working set walked in order ("3MB", blob-dense's 192
// heads: every payload comes from beyond L2).
func BenchmarkDeltaBaseHash(b *testing.B) {
	const size = 16 << 10
	for _, ws := range []struct {
		name string
		n    int
	}{{"hot", 4}, {"3MB", 192}} {
		bufs := make([][]byte, ws.n)
		rng := rand.New(rand.NewSource(2))
		for i := range bufs {
			bufs[i] = make([]byte, size)
			rng.Read(bufs[i])
		}
		b.Run("1/"+ws.name, func(b *testing.B) {
			b.SetBytes(size)
			for i := 0; i < b.N; i++ {
				sinkHash += DeltaBaseHash(bufs[i%ws.n])
			}
		})
		b.Run("4/"+ws.name, func(b *testing.B) {
			b.SetBytes(size)
			for i := 0; i < b.N; i += 4 {
				k := i % ws.n
				h0, h1, h2, h3 := DeltaBaseHash4(bufs[k], bufs[k+1], bufs[k+2], bufs[k+3])
				sinkHash += h0 + h1 + h2 + h3
			}
		})
	}
}
