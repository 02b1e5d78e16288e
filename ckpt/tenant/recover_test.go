package tenant_test

// TenantIDs and RecoveryRun are lookups in the chain catalog the log caches.
// These tests hold the catalog to the two linear filters it replaced, through
// its whole life cycle, and pin its cost by counting.

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"ickpt/ckpt"
	"ickpt/ckpt/tenant"
	"ickpt/internal/faultfs"
	"ickpt/stablelog"
)

// refTenantIDs is the filter TenantIDs ran before the index.
func refTenantIDs(l *stablelog.Log) []uint32 {
	var ids []uint32
	for _, seg := range l.Segments() {
		if id, _ := tenant.SplitEpoch(seg.Epoch); !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// refRecoveryRun is the filter RecoveryRun ran before the index; a nil run
// stands for ErrNoFull.
func refRecoveryRun(l *stablelog.Log, id uint32) []stablelog.SegmentInfo {
	var run []stablelog.SegmentInfo
	for _, seg := range l.Segments() {
		if segID, _ := tenant.SplitEpoch(seg.Epoch); segID != id {
			continue
		}
		if seg.Mode == ckpt.Full {
			run = run[:0]
		}
		run = append(run, seg)
	}
	if len(run) == 0 || run[0].Mode != ckpt.Full {
		return nil
	}
	return run
}

// checkAgainstFilters compares the index with the filters for every tenant
// in the log plus one that is not.
func checkAgainstFilters(t *testing.T, when string, l *stablelog.Log) {
	t.Helper()
	ids := tenant.TenantIDs(l)
	if want := refTenantIDs(l); !slices.Equal(ids, want) {
		t.Fatalf("%s: TenantIDs = %v, want %v", when, ids, want)
	}
	for _, id := range append(ids, 0xFFFF) {
		want := refRecoveryRun(l, id)
		got, err := tenant.RecoveryRun(l, id)
		if want == nil {
			if !errors.Is(err, stablelog.ErrNoFull) {
				t.Fatalf("%s: RecoveryRun(%d) = %v, %v; want ErrNoFull", when, id, got, err)
			}
			continue
		}
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("%s: RecoveryRun(%d) = %v, %v\nwant %v", when, id, got, err, want)
		}
		// The run is the caller's: scribbling on it must not reach the index.
		got[0].Seq, got[len(got)-1].Epoch = 0, 0
		if again, _ := tenant.RecoveryRun(l, id); !slices.Equal(again, want) {
			t.Fatalf("%s: RecoveryRun(%d) after mutating the previous answer = %v\nwant %v", when, id, again, want)
		}
	}
	ids[0] = 0xDEAD
	if again := tenant.TenantIDs(l); !slices.Equal(again, refTenantIDs(l)) {
		t.Fatalf("%s: TenantIDs after mutating the previous answer = %v", when, again)
	}
}

// interleave appends n segments for random tenants out of ids: tenant
// noFull only ever gets incrementals, everyone else starts with a Full and
// is re-anchored by a later Full one time in eight.
func interleave(t *testing.T, l *stablelog.Log, rng *rand.Rand, ids []uint32, noFull uint32, local map[uint32]uint64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		id := ids[rng.Intn(len(ids))]
		mode := ckpt.Incremental
		if id != noFull && (local[id] == 0 || rng.Intn(8) == 0) {
			mode = ckpt.Full
		}
		local[id]++
		if _, err := l.Append(mode, tenant.WireEpoch(id, local[id]), []byte{byte(id), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStreamIndexMatchesLinearFilter(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := faultfs.NewMem()
		l, err := stablelog.Create("s.log", stablelog.WithFS(m))
		if err != nil {
			t.Fatal(err)
		}
		if ids := tenant.TenantIDs(l); len(ids) != 0 {
			t.Fatalf("empty log: TenantIDs = %v", ids)
		}
		if _, err := tenant.RecoveryRun(l, 1); !errors.Is(err, stablelog.ErrNoFull) {
			t.Fatalf("empty log: RecoveryRun = %v, want ErrNoFull", err)
		}

		ids := []uint32{0, 1, 2, 3, 5, 8, 13, 21, 1 << 31, 0xFFFFFFFE}
		const noFull = 13
		local := make(map[uint32]uint64)
		interleave(t, l, rng, ids, noFull, local, 400)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		l, err = stablelog.Open("s.log", stablelog.WithFS(m))
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstFilters(t, "after Open", l)
		if !slices.Contains(tenant.TenantIDs(l), noFull) {
			t.Fatalf("tenant %d has segments but no Full: TenantIDs must still list it", noFull)
		}

		// The index exists now; appends on the same handle — new tenants
		// included — must show up in the next answer.
		for round := 0; round < 3; round++ {
			interleave(t, l, rng, append(ids, 34, 4), noFull, local, 60)
			checkAgainstFilters(t, "after further appends", l)
		}
		l.Close()
	}
}

// runEpochs returns the epochs of a run.
func runEpochs(run []stablelog.SegmentInfo) []uint64 {
	out := make([]uint64, len(run))
	for i, seg := range run {
		out[i] = seg.Epoch
	}
	return out
}

// TestStreamIndexDroppedByRetain: a rewrite renumbers every segment, so the
// index built before it must not survive it — and compacting a log two
// tenants share keeps each one's latest run, not the file's last Full and
// whatever follows it.
func TestStreamIndexDroppedByRetain(t *testing.T) {
	m := faultfs.NewMem()
	l, err := stablelog.Create("r.log", stablelog.WithFS(m))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rng := rand.New(rand.NewSource(7))
	local := make(map[uint32]uint64)
	ids := []uint32{7, 9}
	interleave(t, l, rng, ids, 0xFFFF, local, 120)
	checkAgainstFilters(t, "before Retain", l)
	before := len(l.Segments())
	want := make(map[uint32][]uint64)
	for _, id := range ids {
		run, err := tenant.RecoveryRun(l, id)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = runEpochs(run)
	}

	if err := l.Retain(stablelog.KeepLastRun{}); err != nil {
		t.Fatal(err)
	}
	after := l.Segments()
	if len(after) >= before {
		t.Fatalf("Retain kept %d of %d segments; the test needs a dead prefix", len(after), before)
	}
	checkAgainstFilters(t, "after Retain", l)
	kept := 0
	for _, id := range ids {
		run, err := tenant.RecoveryRun(l, id)
		if err != nil || !slices.Equal(runEpochs(run), want[id]) {
			t.Fatalf("after Retain: tenant %d run = %v, %v; want its latest run %v", id, run, err, want[id])
		}
		kept += len(run)
	}
	if len(after) != kept || after[0].Seq != 1 {
		t.Fatalf("after Retain: %d segments from seq %d; want the %d of the tenants' runs, renumbered from 1",
			len(after), after[0].Seq, kept)
	}
	interleave(t, l, rng, ids, 0xFFFF, local, 10)
	checkAgainstFilters(t, "appends after Retain", l)
}

// TestRecoveryRunCostIsItsAnswer: on a 64-tenant, 20 000-segment log one
// RecoveryRun allocates its answer and nothing else. The filter it replaced
// copied the whole segment table per call.
func TestRecoveryRunCostIsItsAnswer(t *testing.T) {
	const tenants, segments = 64, 20000
	l, err := stablelog.Create("big.log", stablelog.WithFS(faultfs.NewMem()))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < segments; i++ {
		id, mode := uint32(i%tenants+1), ckpt.Incremental
		if i < tenants {
			mode = ckpt.Full
		}
		if _, err := l.Append(mode, tenant.WireEpoch(id, uint64(i/tenants+1)), nil); err != nil {
			t.Fatal(err)
		}
	}
	run, err := tenant.RecoveryRun(l, 9) // builds the index
	if err != nil || len(run) != segments/tenants+1 {
		t.Fatalf("run = %d segments, %v; want %d", len(run), err, segments/tenants+1)
	}

	if allocs := testing.AllocsPerRun(100, func() { tenant.RecoveryRun(l, 9) }); allocs > 2 {
		t.Errorf("RecoveryRun allocates %.0f times per call, want its answer only", allocs)
	}
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		tenant.RecoveryRun(l, 9)
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	if limit := 2 * uint64(len(run)) * uint64(unsafe.Sizeof(stablelog.SegmentInfo{})); perCall >= limit {
		t.Errorf("RecoveryRun allocates %d bytes per call, want < %d (the whole table is %d)",
			perCall, limit, segments*int(unsafe.Sizeof(stablelog.SegmentInfo{})))
	}
}
