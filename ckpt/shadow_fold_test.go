package ckpt_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"ickpt/ckpt"
	"ickpt/ckpt/parfold"
	"ickpt/wire"
)

// The shadow cache's heads are advanced in place by the emitter that records
// an object, before anybody knows whether the body will be published. These
// tests drive the two consequences through real drivers: a fold that fails
// leaves advanced heads behind (they must stop serving), and acknowledgements
// resolve epochs from another goroutine while emitters patch heads.

// seenObj is a lifeObj that remembers being recorded.
type seenObj struct {
	lifeObj
	seen bool
}

func (o *seenObj) Record(e *wire.Encoder) {
	o.seen = true
	o.lifeObj.Record(e)
}

// TestFoldFailureStalesAdvancedHeads: a fold that dies part-way has already
// advanced the heads of the objects it recorded, to payloads that are never
// published. The retake must ship exactly those objects in full — a delta
// against an advanced head would name a base the stream never carried — and
// still diff the objects the failed fold never reached.
func TestFoldFailureStalesAdvancedHeads(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	for _, tc := range []struct {
		name string
		mk   func(*testing.T, *ckpt.Session, *ckpt.ShadowCache) lifeDriver
		// victim picks the object whose fold fails, by id.
		victim func(id uint64) bool
	}{
		// The start-over writer leaves the failed body for the next Start to
		// find: the Writer.Discard path.
		{"writer-discard", func(t *testing.T, s *ckpt.Session, c *ckpt.ShadowCache) lifeDriver {
			return newWriterDriver(t, s, c, true)
		}, func(id uint64) bool { return id == 6 }},
		// The folder assigns shard = id mod 4 and workers claim shards in
		// order: the first item of shard 2 fails in a shard that is not the
		// first, with the rest of its shard never reached.
		{"parfold-shard-failure", func(t *testing.T, s *ckpt.Session, c *ckpt.ShadowCache) lifeDriver {
			opts := []parfold.Option{parfold.WithWorkers(2), parfold.WithShards(4),
				parfold.WithSession(s), parfold.WithShadowCache(c)}
			return &folderDriver{t: t, f: parfold.NewGeneric(opts...), sess: s, sharded: true}
		}, func(id uint64) bool { return id%4 == 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := ckpt.NewDomain()
			objs := make([]*seenObj, 12)
			roots := make([]ckpt.Checkpointable, len(objs))
			for i := range objs {
				objs[i] = &seenObj{lifeObj: lifeObj{blob: *newBlob(d, 256, int64(i))}}
				roots[i] = objs[i]
			}
			pokeAll := func(at int) {
				for _, o := range objs {
					o.poke(at)
					o.seen = false
				}
			}
			sess, cache := lifeCfg{session: true, delta: true}.parts()
			drv := tc.mk(t, sess, cache)
			good := func(mode ckpt.Mode) {
				t.Helper()
				epoch, err := drv.take(mode, roots)
				if err != nil {
					t.Fatalf("take: %v", err)
				}
				drv.ack(epoch)
			}
			good(ckpt.Full)
			pokeAll(3)
			good(ckpt.Incremental)

			pokeAll(40)
			victim := objs[slices.IndexFunc(objs, func(o *seenObj) bool { return tc.victim(o.info.ID()) })]
			victim.fail = errLifeTrip
			if _, err := drv.take(ckpt.Incremental, roots); !errors.Is(err, errLifeTrip) {
				t.Fatalf("armed take = %v, want the injected failure", err)
			}
			var emitted []uint64
			for _, o := range objs {
				if o.seen {
					emitted = append(emitted, o.info.ID())
				}
			}
			if !victim.seen || len(emitted) == len(objs) {
				t.Fatalf("failed fold recorded ids %v: want the victim among them and some object unreached", emitted)
			}

			good(ckpt.Incremental) // the retake
			bodies := drv.close()
			var full, delta []uint64
			if _, err := ckpt.InspectBodyKinds(bodies[len(bodies)-1], func(id uint64, _ ckpt.TypeID, kind byte, _ []byte) error {
				if kind == wire.KindDelta {
					delta = append(delta, id)
				} else {
					full = append(full, id)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(full, emitted) {
				t.Errorf("retake ships ids %v in full, want exactly what the failed fold recorded: %v", full, emitted)
			}
			if len(full)+len(delta) != len(objs) {
				t.Errorf("retake carries %d records, want all %d objects", len(full)+len(delta), len(objs))
			}
			rebuilt := rebuildBlobs(t, bodies)
			for _, o := range objs {
				if got := rebuilt[o.info.ID()].(*blob).data; !bytes.Equal(got, o.data) {
					t.Errorf("object %d rebuilt from the stream differs from the live one", o.info.ID())
				}
			}
		})
	}
}

// TestStageHashesFilledBeforeTake: the emitter fingerprints the heads it
// advances four at a time and the leftovers when its stages are taken, so
// whatever the number of shadowed records an emitter folds in one epoch —
// under, at and over a multiple of four, in one writer or split across shard
// workers — every head the cache goes on to serve carries the hash of its own
// bytes (the hash the next delta embeds and replay verifies). A fold that
// fails after j records settles through Discard, which needs no hash: the
// heads it advanced stop serving, and the retake re-establishes them.
func TestStageHashesFilledBeforeTake(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	for _, drvName := range []string{"writer", "parfold-w2s4"} {
		for _, n := range []int{1, 3, 4, 5, 9} {
			t.Run(fmt.Sprintf("%s/records=%d", drvName, n), func(t *testing.T) {
				d := ckpt.NewDomain()
				objs := make([]*seenObj, n)
				roots := make([]ckpt.Checkpointable, 0, n+2)
				for i := range objs {
					objs[i] = &seenObj{lifeObj: lifeObj{blob: *newBlob(d, 256+i, int64(i))}}
					roots = append(roots, objs[i])
				}
				// Two records below the floor ride along unshadowed.
				roots = append(roots, newBlob(d, lifeFloor/2, 90), newBlob(d, lifeFloor/2, 91))
				sess, cache := lifeCfg{session: true, delta: true}.parts()
				var drv lifeDriver = newWriterDriver(t, sess, cache, false)
				if drvName != "writer" {
					drv = newFolderDriver(t, sess, cache, 2)
				}
				pokeAll := func(at int) {
					for _, o := range objs {
						o.poke(at)
						o.seen = false
					}
				}
				good := func(mode ckpt.Mode) {
					t.Helper()
					epoch, err := drv.take(mode, roots)
					if err != nil {
						t.Fatalf("take: %v", err)
					}
					if err := cache.CheckServingHashes(); err != nil {
						t.Fatalf("after epoch %d: %v", epoch, err)
					}
					drv.ack(epoch)
				}
				good(ckpt.Full)
				if cache.Len() != n {
					t.Fatalf("cache shadows %d objects, want %d", cache.Len(), n)
				}
				pokeAll(3)
				good(ckpt.Incremental)
				for j := 1; j <= n; j++ {
					pokeAll(40 + j)
					objs[j-1].fail = errLifeTrip
					if _, err := drv.take(ckpt.Incremental, roots); !errors.Is(err, errLifeTrip) {
						t.Fatalf("take armed at record %d = %v, want the injected failure", j, err)
					}
					for _, o := range objs {
						if o.seen && cache.CommittedBase(o.info.ID()) != nil {
							t.Fatalf("failure at record %d: object %d was recorded and its head still serves", j, o.info.ID())
						}
					}
					if err := cache.CheckServingHashes(); err != nil {
						t.Fatalf("failure at record %d: %v", j, err)
					}
					good(ckpt.Incremental) // the retake
				}
				if got, want := cache.Stats().Wins, n; got < want {
					t.Fatalf("%d delta wins, want at least %d", got, want)
				}
				rebuilt := rebuildBlobs(t, drv.close())
				for _, o := range objs {
					if got := rebuilt[o.info.ID()].(*blob).data; !bytes.Equal(got, o.data) {
						t.Errorf("object %d rebuilt from the stream differs from the live one", o.info.ID())
					}
				}
			})
		}
	}
}

// TestShadowAcksDuringShardedFolds runs sharded delta folds while a second
// goroutine resolves the epochs behind them — commits, and every so often a
// sticky abort — so commitEpoch and abortEpoch run against emitters patching
// the heads of the very entries being resolved (run it under -race: make
// faultcheck does). An abort re-marks through the object's Info, which is not
// safe against a concurrent fold of the same object, so the session's resolver
// covers nothing: every abort degrades the session instead and the next epoch
// is forced Full. The committed bodies must rebuild to the live state.
func TestShadowAcksDuringShardedFolds(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	d := ckpt.NewDomain()
	var blobs []*blob
	var roots []ckpt.Checkpointable
	for i := 0; i < 16; i++ {
		b := newBlob(d, 1024, int64(i))
		blobs = append(blobs, b)
		roots = append(roots, b)
	}
	sess := ckpt.NewSession(ckpt.WithInfoResolver(func(uint64) *ckpt.Info { return nil }))
	cache := ckpt.NewShadowCache(128)
	f := parfold.NewGeneric(parfold.WithWorkers(2), parfold.WithShards(4),
		parfold.WithSession(sess), parfold.WithShadowCache(cache))
	defer f.Release()

	bodies := make(map[uint64][]byte)
	fold := func(mode ckpt.Mode) uint64 {
		t.Helper()
		body, _, err := f.Fold(sess.NextMode(mode), roots)
		if err != nil {
			t.Fatal(err)
		}
		bodies[f.Epoch()] = bytes.Clone(body)
		return f.Epoch()
	}
	committed := []uint64{fold(ckpt.Full)}
	sess.Commit(committed[0])

	// The channel is unbuffered, so the acker resolves epoch E while — and
	// only while — epoch E+1 folds: an abort of E must take E+1 with it.
	acks := make(chan uint64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		abort := 0
		for epoch := range acks {
			if epoch%23 == 0 {
				abort = 2
			}
			if abort > 0 {
				abort--
				sess.Abort(epoch)
				continue
			}
			sess.Commit(epoch)
			committed = append(committed, epoch)
		}
	}()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 240; i++ {
		for _, b := range blobs {
			if rng.Intn(3) > 0 {
				b.poke(rng.Intn(1024))
			}
		}
		acks <- fold(ckpt.Incremental)
	}
	close(acks)
	<-done

	last := fold(ckpt.Incremental) // Full, if the schedule ended on an abort
	sess.Commit(last)
	committed = append(committed, last)
	if st := sess.Stats(); st.Aborts == 0 || st.ForcedFull == 0 || cache.Stats().Wins == 0 {
		t.Fatalf("schedule too tame: %d aborts, %d forced Full epochs, %d delta wins", st.Aborts, st.ForcedFull, cache.Stats().Wins)
	}
	var stream [][]byte
	for _, e := range committed {
		stream = append(stream, bodies[e])
	}
	rebuilt := rebuildBlobs(t, stream)
	for _, b := range blobs {
		if got := rebuilt[b.info.ID()].(*blob).data; !bytes.Equal(got, b.data) {
			t.Errorf("object %d rebuilt from the committed stream differs from the live one", b.info.ID())
		}
	}
}

// TestDeltaEmitAllocsZero gates the steady-state delta epoch of a shadowed
// 16 KB object: the head is patched (a win) or overwritten (a loss that does
// not arm the churn backoff) in place, so neither path allocates.
func TestDeltaEmitAllocsZero(t *testing.T) {
	b := newBlob(ckpt.NewDomain(), 16<<10, 1)
	s := ckpt.NewSession()
	w := ckpt.NewWriter(ckpt.WithSession(s), ckpt.WithDeltaEncoding(4096))
	rng := rand.New(rand.NewSource(2))
	epoch := func(mode ckpt.Mode, wantDeltas int) {
		w.Start(mode)
		if err := w.Checkpoint(b); err != nil {
			t.Fatal(err)
		}
		_, st, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if st.Deltas != wantDeltas {
			t.Fatalf("epoch shipped %d deltas, want %d", st.Deltas, wantDeltas)
		}
		if !s.Commit(w.Epoch()) {
			t.Fatal("epoch not pending at Commit")
		}
	}
	win := func() {
		for r := 0; r < 8; r++ {
			rng.Read(b.data[r*2048 : r*2048+102])
		}
		b.info.Mark()
		epoch(ckpt.Incremental, 1)
	}
	// One loss leaves the miss streak below the backoff; the win that follows
	// resets it, so the pair repeats without ever arming a window.
	lossThenWin := func() {
		rng.Read(b.data)
		b.info.Mark()
		epoch(ckpt.Incremental, 0)
		win()
	}
	epoch(ckpt.Full, 0)
	for i := 0; i < 3; i++ { // warm the pools and grow the backing arrays
		lossThenWin()
	}
	if avg := testing.AllocsPerRun(50, win); avg != 0 {
		t.Errorf("steady-state winning delta epoch allocates %v per run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, lossThenWin); avg != 0 {
		t.Errorf("steady-state losing delta epoch (plus the win that resets the streak) allocates %v per run, want 0", avg)
	}
	if st := w.Shadow().Stats(); st.SkippedEmits != 0 {
		t.Fatalf("the loss path armed the churn backoff (%d skipped emits): not the path under test", st.SkippedEmits)
	}
}
