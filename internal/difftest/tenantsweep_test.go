package difftest

import (
	"bytes"
	"fmt"
	"syscall"
	"testing"

	"ickpt/ckpt"
	"ickpt/ckpt/tenant"
	"ickpt/internal/faultfs"
	"ickpt/internal/synth"
	"ickpt/stablelog"
)

// This file is the multi-tenant differential cell: several tenants
// interleave checkpoint epochs onto ONE shared stable log through
// tenant.Manager, faults strike the shared storage underneath all of them,
// and each tenant's recovery — filtered out of the interleaved segment
// stream — must still be byte-identical to its live graph.

// groupSizes are the WithSyncEvery settings each sweep runs under: 1 makes
// every epoch its own write and fsync; 8 is more than a round submits, so a
// round's epochs reach the file as one gathered write at Flush and a fault
// strikes all of them at once.
var groupSizes = []int{1, 8}

// forGroupSizes runs sweep once per group size, as a subtest.
func forGroupSizes(t *testing.T, sweep func(t *testing.T, every int)) {
	for _, every := range groupSizes {
		t.Run(fmt.Sprintf("every%d", every), func(t *testing.T) { sweep(t, every) })
	}
}

// tenantFixture is one tenant's synth workload plus its twin rng stream.
type tenantFixture struct {
	id uint32
	w  *synth.Workload
}

func buildTenants(t *testing.T, m *tenant.Manager, n int) []tenantFixture {
	t.Helper()
	fixtures := make([]tenantFixture, n)
	for i := 0; i < n; i++ {
		id := uint32(i + 1)
		w := synth.Build(synth.Shape{Structures: 5 + 3*i, ListLen: 4, Kind: synth.Ints1})
		if err := w.Drain(); err != nil {
			t.Fatalf("tenant %d drain: %v", id, err)
		}
		tn := m.Tenant(id)
		if err := tn.Init(w.Domain, nil, w.Roots()...); err != nil {
			t.Fatalf("tenant %d init: %v", id, err)
		}
		fixtures[i] = tenantFixture{id: id, w: w}
	}
	return fixtures
}

// verifyTenants checks every tenant's recovery out of the shared log against
// its live graph, byte for byte.
func verifyTenants(t *testing.T, lg *stablelog.Log, fixtures []tenantFixture, tag string) {
	t.Helper()
	for _, fx := range fixtures {
		run, err := tenant.RecoveryRun(lg, fx.id)
		if err != nil {
			t.Fatalf("%s: tenant %d recovery run: %v", tag, fx.id, err)
		}
		bodies := make([][]byte, len(run))
		for i, seg := range run {
			b, err := lg.Read(seg.Seq)
			if err != nil {
				t.Fatalf("%s: tenant %d read seq %d: %v", tag, fx.id, seg.Seq, err)
			}
			bodies[i] = b
		}
		rebuilt, err := RebuildDump(synth.Registry(), bodies)
		if err != nil {
			t.Fatalf("%s: tenant %d rebuild: %v", tag, fx.id, err)
		}
		live, err := SnapshotDump(&Population{Roots: fx.w.Roots()})
		if err != nil {
			t.Fatalf("%s: tenant %d live dump: %v", tag, fx.id, err)
		}
		if !bytes.Equal(rebuilt, live) {
			t.Fatalf("%s: tenant %d recovery differs from live graph", tag, fx.id)
		}
	}
}

// retainAndRewindTenants runs binomial retention over the shared log, then
// holds every tenant's recovery, and its rewind to its latest epoch, to its
// live graph byte for byte: retention and rewind run per tenant, as on a log
// holding that tenant alone.
func retainAndRewindTenants(t *testing.T, lg *stablelog.Log, fixtures []tenantFixture, tag string) {
	t.Helper()
	if err := lg.Retain(stablelog.Binomial{Window: 4, Tail: 1}); err != nil {
		t.Fatalf("%s: Retain: %v", tag, err)
	}
	for _, fx := range fixtures {
		live, err := SnapshotDump(&Population{Roots: fx.w.Roots()})
		if err != nil {
			t.Fatalf("%s: tenant %d live dump: %v", tag, fx.id, err)
		}
		run, err := tenant.RecoveryRun(lg, fx.id)
		if err != nil {
			t.Fatalf("%s: tenant %d recovery run after Retain: %v", tag, fx.id, err)
		}
		_, latest := tenant.SplitEpoch(run[len(run)-1].Epoch)
		recovered, rewound := ckpt.NewRebuilder(synth.Registry()), ckpt.NewRebuilder(synth.Registry())
		if err := tenant.Recover(lg, fx.id, recovered); err != nil {
			t.Fatalf("%s: tenant %d Recover after Retain: %v", tag, fx.id, err)
		}
		if _, err := lg.RewindTo(rewound, tenant.WireEpoch(fx.id, latest)); err != nil {
			t.Fatalf("%s: tenant %d RewindTo(%d) after Retain: %v", tag, fx.id, latest, err)
		}
		for what, rb := range map[string]*ckpt.Rebuilder{"Recover": recovered, "RewindTo": rewound} {
			dump, err := rebuilderDump(rb)
			if err != nil {
				t.Fatalf("%s: tenant %d %s dump: %v", tag, fx.id, what, err)
			}
			if !bytes.Equal(dump, live) {
				t.Fatalf("%s: tenant %d %s after Retain differs from the live graph", tag, fx.id, what)
			}
		}
	}
}

// TestTenantTransientFaultSweep: three tenants interleave epochs onto a
// shared log over a fault-injected filesystem; a one-shot write or sync
// fault is armed under each round in turn. The manager's retry policy
// absorbs the transient failure inside the shared AsyncWriter — no tenant
// epoch aborts, nothing is dropped, and every tenant's recovery stays
// byte-identical to its live graph.
func TestTenantTransientFaultSweep(t *testing.T) { forGroupSizes(t, tenantTransientFaultSweep) }

func tenantTransientFaultSweep(t *testing.T, every int) {
	const nTenants, rounds = 3, 4
	faults := []struct {
		name string
		arm  func(m *faultfs.Mem)
	}{
		{name: "write", arm: func(m *faultfs.Mem) { m.FailWrite(1, 0, syscall.EIO) }},
		{name: "sync", arm: func(m *faultfs.Mem) { m.FailSync(1, syscall.EIO) }},
	}
	for _, lf := range faults {
		for failRound := 0; failRound < rounds; failRound++ {
			t.Run(fmt.Sprintf("%s/round%d", lf.name, failRound), func(t *testing.T) {
				mem := faultfs.NewMem()
				lg, err := stablelog.Create("tenants.log", stablelog.WithFS(mem))
				if err != nil {
					t.Fatal(err)
				}
				defer lg.Close()
				m := tenant.NewManager(lg,
					tenant.WithWorkers(2), tenant.WithSyncEvery(every),
					tenant.WithRetry(2, 0))
				fixtures := buildTenants(t, m, nTenants)

				for round := 0; round < rounds; round++ {
					if round == failRound {
						lf.arm(mem)
					}
					for _, fx := range fixtures {
						tn := m.Tenant(fx.id)
						if round > 0 {
							w := fx.w
							tn.Update(func() { w.MutateEvery(0.4) })
						}
						if err := tn.Request(); err != nil {
							t.Fatalf("round %d tenant %d: %v", round, fx.id, err)
						}
					}
					if err := m.Flush(); err != nil {
						t.Fatalf("round %d flush: %v", round, err)
					}
				}
				if err := m.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}

				// The transient fault was retried inside the writer, invisible
				// to every session.
				ls := m.LogStats()
				if ls.Retried == 0 {
					t.Fatal("injected fault never fired (no writer retry recorded)")
				}
				for _, fx := range fixtures {
					st := m.Tenant(fx.id).Stats()
					if st.Aborted != 0 || st.Acked != st.Folds {
						t.Fatalf("tenant %d stats = %+v: transient fault leaked an abort", fx.id, st)
					}
				}
				verifyTenants(t, lg, fixtures, "transient")
				retainAndRewindTenants(t, lg, fixtures, "transient")
			})
		}
	}
}

// TestTenantStickyFaultRecovery: a hard write failure (retries exhausted)
// kills the shared writer mid-service. The victim epochs abort — re-marking
// their tenants' flags — and every tenant degrades to Full. A new manager
// over the crash-recovered log re-anchors all tenants, after more mutations,
// and per-tenant recovery is byte-identical to the final live graphs.
func TestTenantStickyFaultRecovery(t *testing.T) { forGroupSizes(t, tenantStickyFaultRecovery) }

func tenantStickyFaultRecovery(t *testing.T, every int) {
	const nTenants = 3
	mem := faultfs.NewMem()
	lg, err := stablelog.Create("tenants.log", stablelog.WithFS(mem))
	if err != nil {
		t.Fatal(err)
	}
	m := tenant.NewManager(lg, tenant.WithWorkers(2), tenant.WithSyncEvery(every))
	fixtures := buildTenants(t, m, nTenants)

	// One healthy round: every tenant anchors.
	for _, fx := range fixtures {
		if err := m.Tenant(fx.id).Request(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatalf("anchor flush: %v", err)
	}

	// Kill the next write. With no retry policy the shared writer's error
	// goes sticky on that epoch: every later submission fails too.
	mem.FailWrite(1, 0, syscall.EIO)
	var aborted int
	for _, fx := range fixtures {
		w := fx.w
		tn := m.Tenant(fx.id)
		tn.Update(func() { w.MutateEvery(0.5) })
		if err := tn.Request(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(); err == nil {
		t.Fatal("flush over dead storage reported success")
	}
	if err := m.Close(); err == nil {
		t.Fatal("close over dead storage reported success")
	}
	for _, fx := range fixtures {
		st := m.Tenant(fx.id).Stats()
		aborted += int(st.Aborted)
		if p := m.Tenant(fx.id).Session().Pending(); p != 0 {
			t.Fatalf("tenant %d: %d epochs still pending after sticky failure", fx.id, p)
		}
	}
	if aborted == 0 {
		t.Fatal("sticky storage failure aborted no epoch")
	}
	lg.Close()

	// Reopen through crash recovery (truncating any torn tail), then
	// restart the service: fresh manager, fresh tenants over the SAME live
	// graphs. Init starts each tenant degraded-to-Full, so the first fold
	// re-anchors and recaptures the aborted epochs' re-marked state.
	lg2, err := stablelog.Open("tenants.log", stablelog.WithFS(mem))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer lg2.Close()
	m2 := tenant.NewManager(lg2, tenant.WithWorkers(2), tenant.WithSyncEvery(every))
	for _, fx := range fixtures {
		tn := m2.Tenant(fx.id)
		if err := tn.Init(fx.w.Domain, nil, fx.w.Roots()...); err != nil {
			t.Fatalf("re-init tenant %d: %v", fx.id, err)
		}
	}
	for round := 0; round < 2; round++ {
		for _, fx := range fixtures {
			w := fx.w
			tn := m2.Tenant(fx.id)
			if round > 0 {
				tn.Update(func() { w.MutateEvery(0.4) })
			}
			if err := tn.Request(); err != nil {
				t.Fatal(err)
			}
		}
		if err := m2.Flush(); err != nil {
			t.Fatalf("post-recovery flush: %v", err)
		}
	}
	if err := m2.Close(); err != nil {
		t.Fatalf("post-recovery close: %v", err)
	}
	for _, fx := range fixtures {
		st := m2.Tenant(fx.id).Stats()
		if st.FullFolds == 0 {
			t.Fatalf("tenant %d did not re-anchor after restart", fx.id)
		}
		if st.Acked != st.Folds || st.Aborted != 0 {
			t.Fatalf("tenant %d stats = %+v after recovery", fx.id, st)
		}
	}
	verifyTenants(t, lg2, fixtures, "sticky")
	retainAndRewindTenants(t, lg2, fixtures, "sticky")
}

// TestTenantStickySweepPerRound arms the hard failure under each round in
// turn (not just one fixed point), restarting the service after each kill —
// a sweep over where in the epoch stream the shared storage dies.
func TestTenantStickySweepPerRound(t *testing.T) { forGroupSizes(t, tenantStickySweepPerRound) }

func tenantStickySweepPerRound(t *testing.T, every int) {
	const nTenants, rounds = 3, 3
	for failRound := 0; failRound < rounds; failRound++ {
		t.Run(fmt.Sprintf("round%d", failRound), func(t *testing.T) {
			mem := faultfs.NewMem()
			lg, err := stablelog.Create("tenants.log", stablelog.WithFS(mem))
			if err != nil {
				t.Fatal(err)
			}
			m := tenant.NewManager(lg, tenant.WithWorkers(2), tenant.WithSyncEvery(every))
			fixtures := buildTenants(t, m, nTenants)

			for round := 0; round < rounds; round++ {
				if round == failRound {
					mem.FailWrite(1, 0, syscall.EIO)
				}
				for _, fx := range fixtures {
					w := fx.w
					tn := m.Tenant(fx.id)
					if round > 0 {
						tn.Update(func() { w.MutateEvery(0.4) })
					}
					if err := tn.Request(); err != nil {
						t.Fatal(err)
					}
				}
				err := m.Flush()
				if round >= failRound && err == nil {
					t.Fatalf("round %d: flush over dead storage reported success", round)
				}
				if round < failRound && err != nil {
					t.Fatalf("round %d: healthy flush failed: %v", round, err)
				}
			}
			m.Close()
			lg.Close()

			// Restart the service; one Full re-anchor per tenant. The fault
			// was one-shot, so the reopened log writes cleanly.
			lg2, err := stablelog.Open("tenants.log", stablelog.WithFS(mem))
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer lg2.Close()
			m2 := tenant.NewManager(lg2, tenant.WithWorkers(2), tenant.WithSyncEvery(every))
			for _, fx := range fixtures {
				tn := m2.Tenant(fx.id)
				if err := tn.Init(fx.w.Domain, nil, fx.w.Roots()...); err != nil {
					t.Fatalf("re-init tenant %d: %v", fx.id, err)
				}
				if err := tn.Request(); err != nil {
					t.Fatal(err)
				}
			}
			if err := m2.Flush(); err != nil {
				t.Fatalf("re-anchor flush: %v", err)
			}
			if err := m2.Close(); err != nil {
				t.Fatalf("re-anchor close: %v", err)
			}
			verifyTenants(t, lg2, fixtures, fmt.Sprintf("sweep-round%d", failRound))
		})
	}
}
