// Command ckptinspect dumps and verifies a stablelog checkpoint log.
//
// Usage:
//
//	ckptinspect [-records] [-types] [-stats] [-diff A,B] [-verify] LOGFILE
//
// It lists every segment (sequence number, mode, epoch, size, CRC status)
// and the recovery run. With -records it dumps each object record; with
// -types it prints a per-type size breakdown using the registered workload
// type names; with -diff it compares the object records of two segments.
//
// With -stats it prints delta-encoding accounting instead: per segment, how
// many records shipped full payloads vs delta op streams, and how the
// encoded payload bytes compare to the raw (materialized) bytes the same
// records would have carried as full payloads — the on-disk saving the
// sub-object delta layer bought.
//
// With -verify it instead checks the log end-to-end — framing, checksums,
// body structure, chain coherence (strictly increasing epochs and a
// full-anchored recovery run; delta records must have an in-run base), and
// that the recovery run applies cleanly — distinguishes a torn tail from
// mid-log corruption, flags a stale compaction temp file and a stream whose
// epochs go backwards (its history before that point does not rewind), and
// prints the rewindable epoch catalog. A log that
// several streams share (ckpt/tenant) is checked stream by stream, one line
// each, and a failure names its stream. It exits non-zero if the log is not
// fully intact.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"ickpt/ckpt"
	"ickpt/internal/analysis"
	"ickpt/internal/synth"
	"ickpt/stablelog"
	"ickpt/wire"
)

func main() {
	records := flag.Bool("records", false, "dump every object record")
	types := flag.Bool("types", false, "print per-type size breakdown")
	stats := flag.Bool("stats", false, "print full-vs-delta record and raw-vs-encoded byte accounting")
	diff := flag.String("diff", "", "compare two segments by sequence number, e.g. -diff 1,3")
	verify := flag.Bool("verify", false, "verify the log end-to-end and exit non-zero on any problem")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ckptinspect [-records] [-types] [-stats] [-diff A,B] [-verify] LOGFILE")
		os.Exit(2)
	}
	var err error
	switch {
	case *verify:
		err = verifyLog(flag.Arg(0))
	case *stats:
		err = statsLog(flag.Arg(0))
	default:
		err = run(flag.Arg(0), *records, *types, *diff)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ckptinspect:", err)
		os.Exit(1)
	}
}

// typeNames resolves workload type ids to the names the workloads'
// registries hold, and any other id to its raw value.
func typeNames() func(ckpt.TypeID) string {
	regs := []*ckpt.Registry{synth.Registry(), analysis.Registry()}
	return func(t ckpt.TypeID) string {
		for _, r := range regs {
			if n := r.Name(t); n != "" {
				return n
			}
		}
		return fmt.Sprintf("type:%#x", uint32(t))
	}
}

func run(path string, records, types bool, diff string) error {
	log, err := stablelog.Open(path)
	if err != nil {
		return err
	}
	defer log.Close()

	if diff != "" {
		return diffSegments(log, diff)
	}

	name := typeNames()

	segs := log.Segments()
	fmt.Printf("%s: %d segments\n", path, len(segs))
	typeBytes := make(map[ckpt.TypeID]int)
	typeCount := make(map[ckpt.TypeID]int)
	for _, seg := range segs {
		body, err := log.Read(seg.Seq)
		if err != nil {
			return fmt.Errorf("segment %d: %w", seg.Seq, err)
		}
		info, err := ckpt.InspectBodyKinds(body, func(id uint64, t ckpt.TypeID, _ byte, payload []byte) error {
			if records {
				fmt.Printf("    obj %-8d %-24s %4d bytes\n", id, name(t), len(payload))
			}
			typeBytes[t] += len(payload)
			typeCount[t]++
			return nil
		})
		if err != nil {
			return fmt.Errorf("segment %d: %w", seg.Seq, err)
		}
		fmt.Printf("  seq %-4d %-11s epoch %-4d %8d bytes  %5d records  crc ok\n",
			seg.Seq, seg.Mode, seg.Epoch, seg.Length, info.Records)
	}

	printRun := func(label string, run []stablelog.SegmentInfo, err error) {
		if err != nil {
			fmt.Printf("%s: %v\n", label, err)
			return
		}
		fmt.Printf("%s: segments %d..%d (%d bodies)\n", label, run[0].Seq, run[len(run)-1].Seq, len(run))
	}
	if ids := log.StreamIDs(); len(ids) > 1 {
		for _, id := range ids { // a shared log: one run per stream
			run, err := log.StreamRun(id)
			printRun(fmt.Sprintf("stream %d recovery run", id), run, err)
		}
	} else {
		run, err := log.RecoveryRun()
		printRun("recovery run", run, err)
	}

	if types {
		printTypeBreakdown(typeBytes, typeCount, name)
	}
	return nil
}

func printTypeBreakdown(typeBytes map[ckpt.TypeID]int, typeCount map[ckpt.TypeID]int, name func(ckpt.TypeID) string) {
	{
		ids := make([]ckpt.TypeID, 0, len(typeBytes))
		for t := range typeBytes {
			ids = append(ids, t)
		}
		sort.Slice(ids, func(i, j int) bool { return typeBytes[ids[i]] > typeBytes[ids[j]] })
		fmt.Println("per-type payload totals:")
		for _, t := range ids {
			fmt.Printf("  %-28s %8d bytes in %6d records\n", name(t), typeBytes[t], typeCount[t])
		}
	}
}

// statsLog reports the delta encoding's footprint on a log: per segment, how
// many records shipped full payloads vs delta op streams, and how the encoded
// payload bytes compare to the raw (materialized) bytes the same records
// declare. On a log written without delta encoding the two columns are equal
// and the ratio is 1.000.
func statsLog(path string) error {
	log, err := stablelog.Open(path)
	if err != nil {
		return err
	}
	defer log.Close()

	segs := log.Segments()
	fmt.Printf("%s: %d segments\n", path, len(segs))
	var tFull, tDelta, tRaw, tEnc int
	for _, seg := range segs {
		body, err := log.Read(seg.Seq)
		if err != nil {
			return fmt.Errorf("segment %d: %w", seg.Seq, err)
		}
		var full, delta, raw, enc int
		if _, err := ckpt.InspectBodyKinds(body, func(id uint64, _ ckpt.TypeID, kind byte, payload []byte) error {
			enc += len(payload)
			if kind == wire.KindDelta {
				delta++
				n, err := wire.DeltaLen(payload)
				if err != nil {
					return fmt.Errorf("obj %d: %w", id, err)
				}
				raw += n
				return nil
			}
			full++
			raw += len(payload)
			return nil
		}); err != nil {
			return fmt.Errorf("segment %d: %w", seg.Seq, err)
		}
		ratio := 1.0
		if raw > 0 {
			ratio = float64(enc) / float64(raw)
		}
		fmt.Printf("  seq %-4d %-11s epoch %-4d %5d full %5d delta  raw %9d B  encoded %9d B  ratio %.3f\n",
			seg.Seq, seg.Mode, seg.Epoch, full, delta, raw, enc, ratio)
		tFull += full
		tDelta += delta
		tRaw += raw
		tEnc += enc
	}
	if tRaw > 0 {
		fmt.Printf("total: %d full + %d delta records; raw %d B, encoded %d B — %.1f%% saved\n",
			tFull, tDelta, tRaw, tEnc, 100*(1-float64(tEnc)/float64(tRaw)))
	}
	return nil
}

// verifyLog checks a log end-to-end: the file opens under the strict
// (no-truncation) scan, every segment's checksum and body framing hold,
// and the recovery run applies cleanly through a Rebuilder. A torn tail
// is reported as such — with how much a recovering Open would salvage —
// and kept distinct from transient I/O errors, which must never be
// treated as corruption. Any problem yields a non-nil error, so the
// command exits non-zero.
func verifyLog(path string) error {
	if _, err := os.Stat(path + ".compact"); err == nil {
		fmt.Printf("warning: stale compaction temp file %s (crashed compaction; the next compaction removes it)\n", path+".compact")
	}

	log, err := stablelog.Open(path)
	if err != nil {
		switch {
		case errors.Is(err, stablelog.ErrIO):
			return fmt.Errorf("transient i/o error, not corruption — retry before repairing: %w", err)
		case errors.Is(err, stablelog.ErrCorrupt):
			fmt.Printf("%s: corrupt: %v\n", path, err)
			// Report what a recovering open would salvage, without modifying
			// the file: a torn tail is expected after a crash, mid-log damage
			// is not.
			if rec, rerr := stablelog.Open(path, stablelog.WithTruncateTorn()); rerr == nil {
				segs := rec.Segments()
				rec.Close()
				fmt.Printf("  recoverable prefix: %d intact segments (Open with WithTruncateTorn)\n", len(segs))
			}
			return fmt.Errorf("log is not intact: %w", err)
		default:
			return err
		}
	}
	defer log.Close()

	segs := log.Segments()
	fmt.Printf("%s: %d segments\n", path, len(segs))
	last := make(map[uint32]uint64) // per stream (docs/FORMAT.md), its latest epoch
	for _, seg := range segs {
		body, err := log.Read(seg.Seq) // re-checks the payload checksum
		if err != nil {
			return fmt.Errorf("segment %d: %w", seg.Seq, err)
		}
		info, err := ckpt.InspectBodyKinds(body, nil) // walks every record's framing
		if err != nil {
			return fmt.Errorf("segment %d: bad body: %w", seg.Seq, err)
		}
		fmt.Printf("  seq %-4d %-11s epoch %-4d %8d bytes  %5d records  ok\n",
			seg.Seq, seg.Mode, seg.Epoch, seg.Length, info.Records)
		id := uint32(seg.Epoch >> 32)
		if prev, ok := last[id]; ok && seg.Epoch <= prev {
			fmt.Printf("warning: stream %d: epoch %d after %d at seq %d; its history before seq %d does not rewind\n",
				id, seg.Epoch, prev, seg.Seq, seg.Seq)
		}
		last[id] = seg.Epoch
	}

	ids := log.StreamIDs()
	if len(ids) == 0 {
		fmt.Println("verify: OK (empty log)")
		return nil
	}
	if len(ids) == 1 {
		run, objects, err := verifyStream(log, ids[0])
		if err != nil {
			return err
		}
		if idx, err := log.EpochIndex(); err == nil {
			epochs := idx.Epochs()
			fmt.Printf("  epoch catalog: %d rewindable epochs (%d..%d)\n",
				len(epochs), epochs[0], epochs[len(epochs)-1])
		}
		fmt.Printf("verify: OK — recovery run %d..%d (%d bodies) applies, %d live objects\n",
			run[0].Seq, run[len(run)-1].Seq, len(run), objects)
		return nil
	}
	// A shared log: each stream is its own chain.
	total := 0
	for _, id := range ids {
		run, objects, err := verifyStream(log, id)
		if err != nil {
			return fmt.Errorf("stream %d: %w", id, err)
		}
		fmt.Printf("  stream %d: recovery run %d..%d (%d bodies) applies, %d live objects\n",
			id, run[0].Seq, run[len(run)-1].Seq, len(run), objects)
		total += objects
	}
	fmt.Printf("verify: OK — %d streams recover, %d live objects\n", len(ids), total)
	return nil
}

// verifyStream checks one stream's chain and recovers it, returning its
// latest run and how many objects that run rebuilds.
func verifyStream(log *stablelog.Log, id uint32) ([]stablelog.SegmentInfo, int, error) {
	run, err := log.StreamRun(id)
	if err != nil {
		return nil, 0, fmt.Errorf("no usable recovery run: %w", err)
	}
	if err := stablelog.ValidateRun(run); err != nil {
		return nil, 0, fmt.Errorf("incoherent recovery run: %w", err)
	}
	// Rewinding to the head recovers the stream. Delta records add a
	// cross-body dependency the segment framing cannot see — every patch
	// needs an earlier payload for the same object in the same run — so a
	// delta without one is named, not reported as a generic failure.
	rb := ckpt.NewRebuilder(ckpt.NewRegistry())
	if _, err := log.RewindTo(rb, run[len(run)-1].Epoch); errors.Is(err, ckpt.ErrDeltaBase) {
		return nil, 0, fmt.Errorf("baseless delta in recovery run: %w", err)
	} else if err != nil {
		return nil, 0, fmt.Errorf("recovery run does not apply: %w", err)
	}
	return run, rb.Objects(), nil
}

// diffSegments compares the object records of two segments.
func diffSegments(log *stablelog.Log, spec string) error {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		return fmt.Errorf("bad -diff %q: want A,B", spec)
	}
	seqA, errA := strconv.ParseUint(strings.TrimSpace(parts[0]), 10, 64)
	seqB, errB := strconv.ParseUint(strings.TrimSpace(parts[1]), 10, 64)
	if errA != nil || errB != nil {
		return fmt.Errorf("bad -diff %q: want numeric A,B", spec)
	}
	load := func(seq uint64) (map[uint64][]byte, error) {
		body, err := log.Read(seq)
		if err != nil {
			return nil, err
		}
		recs := make(map[uint64][]byte)
		if _, err := ckpt.InspectBodyKinds(body, func(id uint64, _ ckpt.TypeID, _ byte, payload []byte) error {
			recs[id] = append([]byte(nil), payload...)
			return nil
		}); err != nil {
			return nil, err
		}
		return recs, nil
	}
	a, err := load(seqA)
	if err != nil {
		return err
	}
	b, err := load(seqB)
	if err != nil {
		return err
	}

	var onlyA, onlyB, changed, same []uint64
	for id, pa := range a {
		pb, ok := b[id]
		switch {
		case !ok:
			onlyA = append(onlyA, id)
		case !bytes.Equal(pa, pb):
			changed = append(changed, id)
		default:
			same = append(same, id)
		}
	}
	for id := range b {
		if _, ok := a[id]; !ok {
			onlyB = append(onlyB, id)
		}
	}
	for _, s := range [][]uint64{onlyA, onlyB, changed} {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	fmt.Printf("diff of segments %d and %d:\n", seqA, seqB)
	fmt.Printf("  %d records only in %d, %d only in %d, %d changed, %d identical\n",
		len(onlyA), seqA, len(onlyB), seqB, len(changed), len(same))
	printIDs := func(label string, ids []uint64) {
		if len(ids) == 0 {
			return
		}
		fmt.Printf("  %s:", label)
		for i, id := range ids {
			if i == 20 {
				fmt.Printf(" ... (+%d)", len(ids)-i)
				break
			}
			fmt.Printf(" %d", id)
		}
		fmt.Println()
	}
	printIDs(fmt.Sprintf("only in %d", seqA), onlyA)
	printIDs(fmt.Sprintf("only in %d", seqB), onlyB)
	printIDs("changed", changed)
	return nil
}
