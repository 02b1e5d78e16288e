// Editor: a long-running "document editor" that maintains its state as a
// checkpointable object graph, streams incremental checkpoints into a
// durable stablelog through the asynchronous writer, simulates a crash
// (including a torn final write), and recovers the document.
//
// Run with:
//
//	go run ./examples/editor [-dir DIR]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"ickpt/ckpt"
	"ickpt/stablelog"
)

// Document state: a document holds a linked list of paragraphs; each
// paragraph tracks its text and revision count through Cells. The
// checkpoint protocol (Record/Fold/Restore, Registry) is generated from the
// struct tags by cmd/ckptderive into zz_derived_ckpt.go.

//go:generate go run ickpt/cmd/ckptderive -dir . -prefix editor.

type paragraph struct {
	Info ckpt.Info
	Text ckpt.Cell[string] `ckpt:"field"`
	Revs ckpt.Cell[int64]  `ckpt:"field"`
	Next *paragraph        `ckpt:"next"`
}

type document struct {
	Info  ckpt.Info
	Title ckpt.Cell[string] `ckpt:"field"`
	Edits ckpt.Cell[int64]  `ckpt:"field"`
	Head  *paragraph        `ckpt:"list"`
}

func main() {
	dir := flag.String("dir", "", "working directory (default: a temp dir)")
	flag.Parse()
	if err := run(*dir); err != nil {
		log.Fatal(err)
	}
}

func run(dir string) error {
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "editor")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	path := filepath.Join(dir, "document.ckpt")

	// ---- Session 1: edit and checkpoint, then "crash". ----
	domain := ckpt.NewDomain()
	doc := &document{Info: ckpt.NewInfo(domain)}
	doc.Title.V = "Design notes"
	words := []string{"incremental", "checkpoint", "specialize", "traverse", "record", "restore"}
	for i := 0; i < 6; i++ {
		p := &paragraph{Info: ckpt.NewInfo(domain)}
		p.Text.V = fmt.Sprintf("p%d: %s", 6-i, words[i])
		p.Next = doc.Head
		doc.Head = p
	}

	lg, err := stablelog.Create(path)
	if err != nil {
		return err
	}
	async := stablelog.NewAsyncWriter(lg)
	w := ckpt.NewWriter()

	// Base full checkpoint.
	w.Start(ckpt.Full)
	if err := w.Checkpoint(doc); err != nil {
		return err
	}
	body, stats, err := w.Finish()
	if err != nil {
		return err
	}
	if err := async.Append(ckpt.Full, w.Epoch(), body); err != nil {
		return err
	}
	fmt.Printf("session 1: base checkpoint (%d objects, %d bytes)\n", stats.Recorded, stats.Bytes)

	// Editing loop: each tick mutates a couple of paragraphs through
	// Cells and takes an incremental checkpoint; every fourth tick takes a
	// full one, anchoring a new chain the rewind session can start from.
	rng := rand.New(rand.NewSource(2))
	for tick := 1; tick <= 8; tick++ {
		n := 0
		for p := doc.Head; p != nil; p = p.Next {
			if rng.Intn(3) == 0 {
				p.Text.Set(&p.Info, p.Text.V+" +edit")
				p.Revs.Set(&p.Info, p.Revs.V+1)
				n++
			}
		}
		doc.Edits.Set(&doc.Info, doc.Edits.V+int64(n))

		mode := ckpt.Incremental
		if tick%4 == 0 {
			mode = ckpt.Full
		}
		w.Start(mode)
		if err := w.Checkpoint(doc); err != nil {
			return err
		}
		body, stats, err := w.Finish()
		if err != nil {
			return err
		}
		if err := async.Append(mode, w.Epoch(), body); err != nil {
			return err
		}
		fmt.Printf("  tick %d (%v): edited %d paragraphs, recorded %d objects (%d bytes)\n",
			tick, mode, n, stats.Recorded, stats.Bytes)
	}
	if err := async.Close(); err != nil {
		return err
	}
	if err := lg.Close(); err != nil {
		return err
	}

	// Crash simulation: the process dies mid-write, tearing the final
	// segment on disk.
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		return err
	}
	fmt.Println("session 1 crashed (final segment torn)")

	// ---- Session 2: recover. ----
	lg2, err := stablelog.Open(path, stablelog.WithTruncateTorn())
	if err != nil {
		return err
	}
	defer lg2.Close()
	segs := lg2.Segments()
	fmt.Printf("session 2: recovered log has %d intact segments\n", len(segs))

	rb := ckpt.NewRebuilder(Registry())
	if err := lg2.Recover(rb); err != nil {
		return err
	}
	domain2 := ckpt.NewDomain()
	objs, err := rb.Build(domain2)
	if err != nil {
		return err
	}
	restored := objs[doc.Info.ID()].(*document)

	fmt.Printf("restored %q with %d edits:\n", restored.Title.V, restored.Edits.V)
	for p := restored.Head; p != nil; p = p.Next {
		fmt.Printf("  rev %-3d %s\n", p.Revs.V, truncate(p.Text.V, 60))
	}

	// The restored document is at most one checkpoint behind the live
	// one (the torn segment).
	if restored.Edits.V > doc.Edits.V || restored.Edits.V < doc.Edits.V-6 {
		return fmt.Errorf("implausible recovery: live %d edits, restored %d", doc.Edits.V, restored.Edits.V)
	}
	fmt.Printf("recovery verified (live edits=%d, restored edits=%d; new ids resume after %d)\n",
		doc.Edits.V, restored.Edits.V, domain2.Last())

	// ---- Session 3: time travel. ----
	// The log holds every surviving epoch, so the editor can offer undo at
	// the persistence layer: rewind to a mid-history epoch and materialize
	// the document exactly as it was then.
	idx, err := lg2.EpochIndex()
	if err != nil {
		return err
	}
	epochs := idx.Epochs()
	mid := epochs[len(epochs)/2]
	rb3 := ckpt.NewRebuilder(Registry())
	rstats, err := lg2.RewindTo(rb3, mid)
	if err != nil {
		return err
	}
	objs3, err := rb3.Build(ckpt.NewDomain())
	if err != nil {
		return err
	}
	undone := objs3[doc.Info.ID()].(*document)
	fmt.Printf("session 3: rewound to epoch %d of %d — %q at %d edits (replayed %d segments, %d bytes, from full at epoch %d)\n",
		mid, epochs[len(epochs)-1], undone.Title.V, undone.Edits.V, rstats.Segments, rstats.Bytes, rstats.BaseEpoch)
	if undone.Edits.V > restored.Edits.V {
		return fmt.Errorf("rewind went forward: epoch %d has %d edits, head has %d",
			mid, undone.Edits.V, restored.Edits.V)
	}

	// Age the history with binomial retention: recent epochs stay dense,
	// older ones thin to one full (plus a short incremental tail) per
	// power-of-two age bucket — O(log T) storage for a length-T history.
	if err := lg2.Retain(stablelog.Binomial{Window: 2, Tail: 1}); err != nil {
		return err
	}
	idx, err = lg2.EpochIndex()
	if err != nil {
		return err
	}
	retained := idx.Epochs()
	fmt.Printf("after retention: %d of %d epochs remain %v\n", len(retained), len(epochs), retained)

	kept := make(map[uint64]bool, len(retained))
	for _, e := range retained {
		kept[e] = true
	}
	for _, e := range epochs {
		if kept[e] {
			continue
		}
		// An aged-out epoch fails with its nearest retained neighbors — the
		// undo UI snaps to one of those instead.
		if _, err := lg2.RewindTo(rb3, e); !errors.Is(err, stablelog.ErrEpochUnavailable) {
			return fmt.Errorf("rewind to dropped epoch %d: got %v, want ErrEpochUnavailable", e, err)
		} else {
			fmt.Printf("epoch %d aged out: %v\n", e, err)
		}
		break
	}
	return nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}
