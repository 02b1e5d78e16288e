// Package tenant is the multi-tenant checkpoint service: one Manager owns N
// independent tenants — per-user session state at "millions of users" scale
// — and checkpoints them concurrently onto one shared stable log.
//
// Each Tenant is a full single-domain stack in miniature: its own
// ckpt.Domain (id space), ckpt.Tracker (O(dirty) mark queue), and
// ckpt.Session (epoch commit/abort authority). What tenants share is the
// expensive machinery: a bounded pool of fold workers and one
// stablelog.AsyncWriter multiplexing every tenant's bodies onto a bounded
// set of segment files. Epochs on the wire are composite —
// tenantID<<32 | localEpoch (see WireEpoch/SplitEpoch). The tenant id is the
// log's stream id, and the log runs every chain operation per stream, so
// interleaved segments from different tenants recover, rewind
// (stablelog.Log.RewindTo at a wire epoch) and are retained
// (stablelog.Log.Retain) independently, each exactly as on a log holding
// that tenant alone. Recover is the log's replay at the tenant's latest
// epoch, and TenantIDs and RecoveryRun are lookups in the chain catalog the
// log caches: a restart — TenantIDs, then Recover per tenant — walks the
// segment table once and then touches only each tenant's own chain,
// O(segments) in total rather than O(tenants × segments).
//
// Scheduling is first come, first served: workers fold tenants in the order
// their requests were admitted. A tenant is queued at most once (a request
// for a queued tenant coalesces), so a request waits behind at most one fold
// per other tenant, whatever the sizes of their dirty sets.
//
// Admission control bounds the pending-fold queue. Tenant.Request applies
// backpressure (blocks until the pool drains); Tenant.TryRequest sheds
// instead: the shed is accounted (Stats.Shed), no epoch is lost — the dirty
// set keeps accumulating — and the tenant is degraded to a Full checkpoint
// at its next admitted fold, restoring the bounded-incremental invariant
// (and re-anchoring its recovery chain) after the unbounded gap.
//
// Folds run through the zero-copy path end to end: a worker reserves a
// log-owned buffer (AsyncWriter.Reserve), encodes the tenant's dirty set
// straight into it (Writer.SwapEncoder + StartAt), and submits it without a
// copy (AsyncWriter.Submit). A failed fold recycles the reservation
// (AsyncWriter.Recycle), aborts the epoch through the tenant's session —
// re-marking the cleared flags — and triggers a retry fold that bypasses
// the admission bound. The acknowledgement mux routes each durable-write
// ack back to the owning tenant's session, which commits the epoch; an
// error acknowledgement (only delivered once the shared writer's error has
// gone sticky — transient I/O failures are absorbed by its retry policy)
// aborts the epoch and degrades the tenant to Full, so the next healthy
// writer's anchor recaptures the re-marked state instead of retrying
// against a dead log.
//
// Locking contract: a tenant's domain, tracker, session, and roots are
// guarded by the tenant lock. Folds and acknowledgements take it
// internally; application code mutating tenant state must do so via
// Tenant.Update, which serializes against in-flight folds of that tenant
// (folds of other tenants proceed concurrently). Worker code never holds a
// tenant lock across a Submit — backpressure can block while the
// acknowledgements that would drain it need tenant locks — and never nests
// the manager lock with a tenant lock, in either order.
package tenant
