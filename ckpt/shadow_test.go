package ckpt

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ickpt/wire"
)

// stage1 stages payload as id's head under epoch the way an emit without a
// usable base does: into the entry's buffer when it fits, else a new one.
func stage1(c *ShadowCache, epoch, id uint64, payload []byte) {
	var head []byte
	if e := c.entries[id]; e != nil {
		head = e.head
	}
	st := []ShadowStage{advanceHead(id, head, payload)}
	hashStages(st)
	c.stage(epoch, st)
}

// baseOf is decide reduced to what the assertions below read: the base it
// serves (nil when the record must ship in full), whether it stages, and the
// window it armed.
func baseOf(c *ShadowCache, id uint64, n int, mode Mode) (base []byte, stage bool, window int) {
	head, _, diff, stage, window := c.decide(id, n, mode)
	if diff {
		base = head
	}
	return base, stage, window
}

func TestShadowDecideLifecycle(t *testing.T) {
	c := NewShadowCache(8)
	pay := bytes.Repeat([]byte{0x11, 0x22}, 32)

	if base, stage, _ := baseOf(c, 1, 8, Incremental); base != nil || stage {
		t.Fatalf("payload at threshold: base=%v stage=%v, want nil/false", base, stage)
	}
	base, stage, _ := baseOf(c, 1, len(pay), Incremental)
	if base != nil || !stage {
		t.Fatalf("first sighting: base=%v stage=%v, want nil/true", base, stage)
	}
	stage1(c, 7, 1, pay)

	// A staged head serves as the base before its epoch commits: its body
	// precedes the next one in the stream.
	head, hash, diff, stage, _ := c.decide(1, len(pay), Incremental)
	if !diff || !bytes.Equal(head, pay) || hash != wire.DeltaBaseHash(pay) || !stage {
		t.Fatalf("in-flight base: got %v/diff=%v/hash=%#x/stage=%v", head, diff, hash, stage)
	}
	c.commitEpoch(7, Incremental)
	if got := c.CommittedBase(1); !bytes.Equal(got, pay) {
		t.Fatalf("CommittedBase after commit = %x, want staged payload", got)
	}

	// Full mode refreshes the shadow but never hands out a base; the head
	// comes back as the buffer to refresh.
	if head, _, diff, stage, _ := c.decide(1, len(pay), Full); diff || !stage || &head[0] != &c.entries[1].head[0] {
		t.Fatalf("full mode: diff=%v stage=%v, want false/true and the entry's buffer", diff, stage)
	}

	// A resize cannot delta (aligned format) but re-establishes the shadow.
	if base, stage, _ := baseOf(c, 1, len(pay)+8, Incremental); base != nil || !stage {
		t.Fatalf("resized payload: base=%v stage=%v, want nil/true", base, stage)
	}
}

// TestShadowAbortRestoresCommitted: an abort leaves no base behind — the
// head holds a payload that never entered the stream, and only the staleness
// bit keeps it from serving — and the re-marked emit restores one.
func TestShadowAbortRestoresCommitted(t *testing.T) {
	c := NewShadowCache(0)
	p1 := bytes.Repeat([]byte{0xaa}, 48)
	p2 := bytes.Repeat([]byte{0xbb}, 48)

	stage1(c, 1, 9, p1)
	c.commitEpoch(1, Full)
	stage1(c, 2, 9, p2)
	c.abortEpoch(2)

	if got := c.CommittedBase(9); got != nil {
		t.Fatalf("CommittedBase after abort = %x, want nil (entry stale)", got)
	}
	if e := c.entries[9]; !e.stale {
		t.Fatal("entry not stale after its epoch aborted")
	}
	if base, stage, _ := baseOf(c, 9, 48, Incremental); base != nil || !stage {
		t.Fatalf("post-abort decide: base=%v stage=%v, want nil/true", base, stage)
	}
	// The re-marked emit restages — into the same buffer — and the entry
	// serves diffs again.
	buf := &c.entries[9].head[0]
	stage1(c, 3, 9, p1)
	c.commitEpoch(3, Incremental)
	if got := c.CommittedBase(9); !bytes.Equal(got, p1) {
		t.Fatalf("CommittedBase after restage = %x, want %x", got, p1)
	}
	if &c.entries[9].head[0] != buf {
		t.Fatal("restage of an equal-sized payload replaced the entry's buffer")
	}
}

// TestShadowAbortDropsLaterPends: aborting an epoch also disqualifies what
// later epochs staged (they were encoded against the lost payload, and a
// sticky sink failure aborts them too), and an earlier epoch's commit does
// not bring the base back.
func TestShadowAbortDropsLaterPends(t *testing.T) {
	c := NewShadowCache(0)
	p := func(b byte) []byte { return bytes.Repeat([]byte{b}, 32) }
	stage1(c, 1, 5, p(1))
	stage1(c, 1, 6, p(1))
	stage1(c, 2, 5, p(2))
	stage1(c, 3, 5, p(3))
	c.abortEpoch(2)
	if base, _, _ := baseOf(c, 5, 32, Incremental); base != nil {
		t.Fatalf("after abort of 2: epoch 3's head still serves: %x", base)
	}
	// An object only the earlier, surviving epoch staged keeps its base.
	if base, _, _ := baseOf(c, 6, 32, Incremental); !bytes.Equal(base, p(1)) {
		t.Fatalf("after abort of 2: epoch 1's head for an untouched object = %x, want it served", base)
	}
	// The dangling epoch-3 resolution must be harmless, and epoch 1's commit
	// must not revive a head that matches nothing in the stream.
	c.abortEpoch(3)
	c.commitEpoch(3, Incremental)
	c.commitEpoch(1, Incremental)
	if got := c.CommittedBase(5); got != nil {
		t.Fatalf("CommittedBase after the surviving commit = %x, want nil until restaged", got)
	}
}

// TestShadowStalePendNotServed: a head whose epoch is still unacked must stop
// serving as a diff base once the entry is staled by an unstaged superseding
// emit (a shrink below the floor, or a churn-window arming). Its bytes are no
// longer the object's latest payload in the durable stream — the unstaged
// full body is — so a delta against it would commit a record whose embedded
// base hash disagrees at recovery.
func TestShadowStalePendNotServed(t *testing.T) {
	t.Run("shrink", func(t *testing.T) {
		c := NewShadowCache(8)
		pay := bytes.Repeat([]byte{0xcd}, 64)
		stage1(c, 1, 3, pay) // epoch 1 stays in flight (unacked)

		// A sub-floor emit ships an unstaged full payload and stales the entry.
		if base, stage, _ := baseOf(c, 3, 4, Incremental); base != nil || stage {
			t.Fatalf("shrink emit: base=%v stage=%v, want nil/false", base, stage)
		}
		if e := c.entries[3]; !e.stale {
			t.Fatal("entry not stale after the shrink")
		}
		// The regrown emit must not diff against the outdated head: full
		// payload, restage (which makes the entry serve again). Epoch 1's ack
		// arriving in between changes nothing.
		c.commitEpoch(1, Incremental)
		base, stage, _ := baseOf(c, 3, len(pay), Incremental)
		if base != nil || !stage {
			t.Fatalf("regrown emit served a stale head: base=%v stage=%v, want nil/true", base, stage)
		}
		stage1(c, 2, 3, pay)
		if base, _, _ := baseOf(c, 3, len(pay), Incremental); !bytes.Equal(base, pay) {
			t.Fatalf("restaged head not served: base=%v", base)
		}
	})
	t.Run("window", func(t *testing.T) {
		c := NewShadowCache(0)
		pay := bytes.Repeat([]byte{0xef}, 64)
		stage1(c, 1, 3, pay) // epoch 1 stays in flight (unacked)

		// Two losses arm the churn window, staling the entry while the head's
		// epoch is unacked.
		c.report(3, false)
		if w := c.report(3, false); w == 0 {
			t.Fatal("two losses did not arm the skip window")
		}
		if base, stage, _ := baseOf(c, 3, len(pay), Incremental); base != nil || !stage {
			t.Fatalf("probe emit served a stale head: base=%v stage=%v, want nil/true", base, stage)
		}
	})
}

func TestShadowChurnBackoff(t *testing.T) {
	c := NewShadowCache(0)
	pay := bytes.Repeat([]byte{7}, 64)
	stage1(c, 1, 2, pay)
	c.commitEpoch(1, Full)

	if w := c.report(2, false); w != 0 {
		t.Fatalf("first loss armed a window of %d, want 0", w)
	}
	w := c.report(2, false) // missBackoff reached: skip window armed
	if w == 0 {
		t.Fatal("two losses did not arm the skip window")
	}
	// Arming stales the entry immediately: the window's emits ship full
	// payloads the shadow never sees, so the base must not serve until a
	// probe restages it.
	if got := c.CommittedBase(2); got != nil {
		t.Fatalf("CommittedBase during skip = %x, want nil", got)
	}
	// The emitter consumes the window from the object's Info without calling
	// back; it flushes the skipped-emit count once per epoch.
	c.addSkipped(w)
	if st := c.Stats(); st.SkippedEmits != w {
		t.Fatalf("SkippedEmits = %d, want %d", st.SkippedEmits, w)
	}
	// After the window drains, the probe emit finds a stale entry: full
	// payload, restage, no new window until the attempt's outcome is in.
	if base, stage, win := baseOf(c, 2, len(pay), Incremental); base != nil || !stage || win != 0 {
		t.Fatalf("probe emit: base=%v stage=%v window=%d, want nil/true/0", base, stage, win)
	}
	// Continued losses double the window up to skipMax.
	prev := w
	for i := 0; i < 8; i++ {
		nw := c.report(2, false)
		if nw < prev || nw > skipMax {
			t.Fatalf("loss %d armed window %d (prev %d), want doubling capped at %d", i, nw, prev, skipMax)
		}
		prev = nw
	}
	if prev != skipMax {
		t.Fatalf("window after sustained losses = %d, want cap %d", prev, skipMax)
	}
	// A win resets the miss streak.
	c.report(2, true)
	if e := c.entries[2]; e.miss != 0 {
		t.Fatalf("miss streak after win = %d, want 0", e.miss)
	}
}

func TestShadowFullCommitPrunes(t *testing.T) {
	c := NewShadowCache(0)
	pay := bytes.Repeat([]byte{3}, 16)
	stage1(c, 1, 10, pay)
	stage1(c, 1, 11, pay)
	c.commitEpoch(1, Full)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// Object 11 is absent from the next full checkpoint: dead, pruned. Object
	// 12 is too, but a later epoch in flight staged it: kept.
	stage1(c, 2, 10, pay)
	stage1(c, 3, 12, pay)
	c.commitEpoch(2, Full)
	if c.Len() != 2 || c.entries[11] != nil || c.entries[12] == nil {
		t.Fatalf("full commit pruned the wrong entries: Len=%d", c.Len())
	}
	if got := c.count.Load(); got != 2 {
		t.Fatalf("count after prune = %d, want 2", got)
	}
	c.commitEpoch(3, Incremental)
	// An empty full checkpoint prunes everything; count must follow so
	// decide's lock-free sub-floor fast path re-engages.
	c.stage(4, nil)
	c.commitEpoch(4, Full)
	if c.Len() != 0 || c.count.Load() != 0 {
		t.Fatalf("empty full commit: Len=%d count=%d, want 0/0", c.Len(), c.count.Load())
	}
}

func TestShadowSameEpochRestage(t *testing.T) {
	c := NewShadowCache(0)
	p1 := bytes.Repeat([]byte{1}, 24)
	p2 := bytes.Repeat([]byte{2}, 24)
	stage1(c, 4, 1, p1)
	stage1(c, 4, 1, p2) // retake under the same epoch: supersedes
	if base, _, _ := baseOf(c, 1, 24, Incremental); !bytes.Equal(base, p2) {
		t.Fatalf("restage: base = %x, want the second payload", base)
	}
	c.commitEpoch(4, Incremental)
	if got := c.CommittedBase(1); !bytes.Equal(got, p2) {
		t.Fatalf("CommittedBase = %x, want %x", got, p2)
	}
}

// shadowObj is a leaf object whose payload is its data, length-prefixed.
type shadowObj struct {
	info Info
	data []byte
}

var typeShadowObj = TypeIDOf("ckpt.shadowObj")

func (o *shadowObj) CheckpointInfo() *Info    { return &o.info }
func (o *shadowObj) CheckpointTypeID() TypeID { return typeShadowObj }
func (o *shadowObj) Record(e *wire.Encoder)   { e.BytesField(o.data) }
func (o *shadowObj) Fold(*Writer) error       { return nil }
func (o *shadowObj) payload() []byte          { var e wire.Encoder; o.Record(&e); return e.Bytes() }
func (o *shadowObj) Restore(d *wire.Decoder, _ *Resolver) error {
	o.data = append(o.data[:0], d.BytesField()...)
	return nil
}

// rewrite overwrites runs fresh bytes of run bytes each, evenly spaced, and
// marks the object.
func (o *shadowObj) rewrite(rng *rand.Rand, runs, run int) {
	for r := 0; r < runs; r++ {
		off := r * (len(o.data) / runs)
		rng.Read(o.data[off : off+run])
	}
	o.info.Mark()
}

func newShadowObjs(d *Domain, rng *rand.Rand, n, size int) []*shadowObj {
	objs := make([]*shadowObj, n)
	for i := range objs {
		objs[i] = &shadowObj{info: NewInfo(d), data: make([]byte, size)}
		rng.Read(objs[i].data)
	}
	return objs
}

// TestShadowRetainsOneBufferPerEntry: however many epochs run, however many
// of them are unacknowledged at a time and however raggedly the acks arrive,
// the cache holds exactly one payload-sized buffer per shadowed object — with
// epochs in flight, and after a flush that leaves none. (The pending-shadow
// lists this cache used to keep failed the flushed half: a list that had been
// deep and drained kept dead payloads reachable from its vacated tail slots.)
func TestShadowRetainsOneBufferPerEntry(t *testing.T) {
	const (
		nObjs = 12
		size  = 4094 // a 4096-byte payload: exactly a malloc size class
	)
	for _, depth := range []int{1, 8, 26} {
		t.Run(fmt.Sprintf("unacked=%d", depth), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(depth)))
			objs := newShadowObjs(NewDomain(), rng, nObjs, size)
			s := NewSession()
			w := NewWriter(WithSession(s), WithDeltaEncoding(256))
			c := w.Shadow()
			payload := len(objs[0].payload())
			check := func(when string) {
				t.Helper()
				total := 0
				for id, e := range c.entries {
					if len(e.head) != payload {
						t.Fatalf("%s: entry %d: head is %d bytes, payload is %d", when, id, len(e.head), payload)
					}
					total += cap(e.head)
				}
				if len(c.entries) != nObjs || total != nObjs*payload {
					t.Fatalf("%s: cache retains %d bytes over %d entries, want one %d-byte buffer for each of %d",
						when, total, len(c.entries), payload, nObjs)
				}
			}
			var inflight []uint64
			for epoch := 0; epoch < 8*depth+40; epoch++ {
				mode := Incremental
				if epoch == 0 {
					mode = Full
				}
				w.Start(mode)
				for _, o := range objs {
					o.rewrite(rng, 4, 16)
					if err := w.Checkpoint(o); err != nil {
						t.Fatal(err)
					}
				}
				if _, _, err := w.Finish(); err != nil {
					t.Fatal(err)
				}
				inflight = append(inflight, w.Epoch())
				// Acks arrive in ragged groups, never leaving more than depth
				// epochs unacknowledged.
				n := max(rng.Intn(len(inflight)+1)/2, len(inflight)-depth)
				for _, e := range inflight[:n] {
					s.Commit(e)
				}
				inflight = inflight[n:]
				check(fmt.Sprintf("epoch %d, %d in flight", epoch, len(inflight)))
			}
			for _, e := range inflight {
				s.Commit(e)
			}
			check("flushed")
			if st := c.Stats(); st.Wins < nObjs*8*depth {
				t.Fatalf("only %d delta wins: the schedule did not exercise the in-place path", st.Wins)
			}
		})
	}
}

// streamModel is the reference for TestShadowHeadMatchesStream: the epochs
// whose bodies were published and not aborted, oldest first, each with the
// payloads its records carried. An object's latest payload in the stream is
// the one its newest surviving record carried.
type streamModel struct {
	epochs []modelEpoch
}

type modelEpoch struct {
	epoch uint64
	body  []byte
	pay   map[uint64][]byte
}

func (m *streamModel) latest(id uint64) []byte {
	for i := len(m.epochs) - 1; i >= 0; i-- {
		if p, ok := m.epochs[i].pay[id]; ok {
			return p
		}
	}
	return nil
}

// drop removes the epochs from the one numbered epoch onwards: a sticky abort.
func (m *streamModel) drop(epoch uint64) {
	for i, e := range m.epochs {
		if e.epoch >= epoch {
			m.epochs = m.epochs[:i]
			return
		}
	}
}

// check demands that whatever the cache would serve as id's diff base is the
// object's latest payload in the model's stream, fingerprinted correctly.
func (m *streamModel) check(c *ShadowCache, objs []*shadowObj) error {
	for _, o := range objs {
		id := o.info.ID()
		e := c.entries[id]
		if e == nil || e.stale {
			continue
		}
		if want := m.latest(id); !bytes.Equal(e.head, want) {
			return fmt.Errorf("object %d: head (%d bytes) is not its latest payload in the stream (%d bytes)", id, len(e.head), len(want))
		}
	}
	return c.CheckServingHashes()
}

// TestShadowHeadMatchesStream is the oracle for the cache's one invariant: a
// head serves diffs only if it equals the object's latest payload in the
// published stream. A seeded schedule mixes every way a payload changes (a
// poke, a grow, a shrink below the floor, a full rewrite) with every way an
// epoch ends (a Full or Incremental body left in flight, a fold that fails
// part-way, a commit of the oldest in-flight epoch, an abort of any in-flight
// epoch and — the sticky rule — every later one); after each step every
// serving head must match the reference model, and at the end the surviving
// bodies must rebuild to the live objects.
func TestShadowHeadMatchesStream(t *testing.T) {
	const (
		floor    = 48
		size     = 160
		maxDepth = 4
	)
	reg := NewRegistry()
	reg.MustRegister("ckpt.shadowObj", func(id uint64) Restorable {
		return &shadowObj{info: RestoredInfo(id)}
	})
	for seed := int64(1); seed <= 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		objs := newShadowObjs(NewDomain(), rng, 6, size)
		s := NewSession()
		w := NewWriter(WithSession(s), WithDeltaEncoding(floor))
		c := w.Shadow()
		var m streamModel
		inflight := 0 // the newest `inflight` model epochs are unacknowledged
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d: %s", seed, fmt.Sprintf(format, args...))
		}

		// take folds every object in mode, stopping after failAfter objects
		// with a discarded body when failAfter >= 0.
		take := func(mode Mode, failAfter int) {
			pay := make(map[uint64][]byte)
			for _, o := range objs {
				if mode == Full || o.info.Modified() {
					pay[o.info.ID()] = o.payload()
				}
			}
			w.Start(mode)
			for i, o := range objs {
				if i == failAfter {
					w.Discard()
					return
				}
				if err := w.Checkpoint(o); err != nil {
					fail("Checkpoint: %v", err)
				}
			}
			body, _, err := w.Finish()
			if err != nil {
				fail("Finish: %v", err)
			}
			m.epochs = append(m.epochs, modelEpoch{epoch: w.Epoch(), body: bytes.Clone(body), pay: pay})
			inflight++
		}
		commitOldest := func() {
			s.Commit(m.epochs[len(m.epochs)-inflight].epoch)
			inflight--
		}

		take(Full, -1)
		commitOldest() // the anchor: a stream whose first body is lost rebuilds to nothing
		for step := 0; step < 60; step++ {
			o := objs[rng.Intn(len(objs))]
			switch op := rng.Intn(12); {
			case op < 3: // poke
				o.data[rng.Intn(len(o.data))] ^= 0x5a
				o.info.Mark()
			case op == 3: // grow (or regrow after a shrink)
				o.data = append(o.data, make([]byte, max(size-len(o.data), 0)+1+rng.Intn(24))...)
				o.info.Mark()
			case op == 4: // shrink below the floor
				o.data = o.data[:8+rng.Intn(16)]
				o.info.Mark()
			case op == 5: // 100% churn
				rng.Read(o.data)
				o.info.Mark()
			case op < 9: // an epoch, left in flight
				if inflight == maxDepth {
					commitOldest()
				}
				mode := Incremental
				if rng.Intn(8) == 0 {
					mode = Full
				}
				take(s.NextMode(mode), -1)
			case op == 9: // a fold that fails after j records
				take(Incremental, rng.Intn(len(objs)))
			case op == 10:
				if inflight > 0 {
					commitOldest()
				}
			default: // abort an in-flight epoch and every later one
				if inflight > 0 {
					// The session takes every later epoch down with it.
					k := rng.Intn(inflight)
					lost := m.epochs[len(m.epochs)-inflight+k].epoch
					s.Abort(lost)
					m.drop(lost)
					inflight = k
				}
			}
			if err := m.check(c, objs); err != nil {
				fail("step %d: %v", step, err)
			}
		}

		// Recapture whatever the aborts re-marked, resolve everything, and
		// rebuild from the bodies that survived.
		if inflight == maxDepth {
			commitOldest()
		}
		take(s.NextMode(Incremental), -1)
		for inflight > 0 {
			commitOldest()
		}
		if err := m.check(c, objs); err != nil {
			fail("final: %v", err)
		}
		rb := NewRebuilder(reg)
		for _, e := range m.epochs {
			if err := rb.Apply(e.body); err != nil {
				fail("Apply epoch %d: %v", e.epoch, err)
			}
		}
		rebuilt, err := rb.Build(nil)
		if err != nil {
			fail("Build: %v", err)
		}
		for _, o := range objs {
			if got := rebuilt[o.info.ID()].(*shadowObj); !bytes.Equal(got.data, o.data) {
				fail("object %d rebuilt from the surviving bodies differs from the live one", o.info.ID())
			}
		}
		if seed == 1 && c.Stats().Wins == 0 {
			fail("no delta ever won: the schedule does not exercise the in-place path")
		}
	}
}
