// Package ckpt implements language-level incremental checkpointing of object
// graphs, following the discipline of Lawall & Muller, "Efficient Incremental
// Checkpointing of Java Programs" (DSN 2000).
//
// # Model
//
// A checkpointable object carries an [Info]: a unique identifier issued by a
// [Domain], and a modified flag. Objects implement [Checkpointable]:
//
//   - CheckpointInfo returns the object's Info,
//   - Record writes the object's local state — scalar fields plus the ids of
//     its checkpointable children — to a wire.Encoder,
//   - Fold recursively applies the checkpoint writer to the children.
//
// A [Writer] drives checkpointing. In [Full] mode every visited object is
// recorded. In [Incremental] mode only objects whose modified flag is set are
// recorded; the flag is reset as the object is recorded, so the next
// incremental checkpoint captures only subsequent mutations. Either way the
// whole reachable structure is traversed (the traversal itself is the cost
// that the spec package's program specialization removes).
//
// # Checkpoint bodies
//
// A checkpoint body is a byte slice: a small header (format version, mode,
// epoch) followed by framed object records. Bodies are self-describing and
// can be persisted with package stablelog. A [Rebuilder] folds a base full
// checkpoint plus any number of subsequent incremental bodies into the most
// recent state, then materializes the object graph through a [Registry] of
// type factories.
//
// # Mutation tracking
//
// Go has no write barriers, so the modified flag is maintained at the
// language level, exactly as in the paper: either call Info.SetModified in
// your setters, or wrap fields in [Cell], whose Set method marks the owning
// Info.
//
// The writer, infos and cells are not safe for concurrent use; checkpointing
// uses a blocking protocol (mutators must be quiescent during a checkpoint),
// matching the paper's assumptions.
//
// # The dirty index: O(dirty) incremental checkpoints
//
// Even in Incremental mode the generic driver traverses the whole reachable
// structure to discover which flags are set, so an epoch's floor is the live
// object count. A [Tracker] removes that floor: once a Domain is attached
// ([Domain.AttachTracker]) and the live graph registered ([Tracker.Watch]),
// [Info.Mark] — the same write barrier [Cell.Set] already invokes — also
// enqueues the object into the tracker's mark-queue, and
// [Writer.CheckpointDirty] folds exactly that queue in canonical
// ascending-id order, producing a body byte-identical to the traversal's.
// Any engine's per-object routine can serve as the [EmitOne]; a nil emit
// takes the fused virtual path.
//
// The index never guesses: objects it cannot vouch for (allocations made
// after Watch and never Tracked, identity mismatches between the registered
// object and the marked Info) degrade the tracker, [Tracker.NextMode]
// forces one Full traversal, and Watch re-arms O(dirty) operation.
//
// # Failure atomicity: the epoch commit/abort protocol
//
// Clearing a modified flag is a bet that the body being encoded will reach
// stable storage. If the body is lost — a fold error, a failed append, a
// failed fsync — the cleared flags become lost updates: the next incremental
// checkpoint skips exactly the objects whose latest state was just lost.
// [Session] makes the bet safe. The emitter records every cleared id into a
// per-epoch clear-set; a writer built [WithSession] hands each epoch's
// clear-set to the session, where it stays pending until the caller resolves
// it:
//
//   - [Session.Commit] once the body is durable — the flags stay cleared;
//   - [Session.Abort] if the body is lost — every cleared flag is re-marked,
//     so the next incremental checkpoint recaptures the lost state;
//   - [Session.Ack] adapts both to an (epoch, error) callback, matching
//     stablelog's asynchronous acknowledgement.
//
// The writer aborts on its own when a fold fails ([Writer.Finish] refuses a
// half-built body) or when [Writer.Start] discards an unfinished body. If an
// abort cannot re-mark an object (no captured Info and no [InfoResolver]
// match), the session degrades and [Session.NextMode] forces the next
// checkpoint to Full — the safe fallback. See docs/DURABILITY.md for the
// end-to-end contract including the log.
//
// # One epoch lifecycle
//
// Every driver runs an epoch the same way. A body starts in one place,
// [Writer.StartAt] ([Writer.Start] is StartAt at the next epoch); records are
// framed by one encoder, the [Emitter], straight into the body; and a fold —
// finished or failed — ends in one place, [Settle], which hands the epoch's
// clear-set and staged delta shadows to the epoch's authority: the session,
// or, with none attached, nobody — a finished body then counts as durable at
// once and a failed one is re-marked directly. [Writer.Finish] and
// [Writer.Discard] are Settle with the writer's own state; package parfold's
// single-worker fold and package tenant's folds are this Writer, and
// parfold's sharded fold settles the merged epoch of its detached workers
// with one Settle call. No other code stages or discards shadows, attaches
// them to a session, or re-marks a clear-set.
//
// # Memory model for parallel folding
//
// Package parfold folds disjoint subtrees of the registered graph on a pool
// of workers, each driving its own Writer through the one engine routine
// (parfold.FoldFunc) the folder was built with; a routine that keeps state
// beyond its arguments must make that state safe to share. No lock or atomic guards the Info
// modified flag — that would tax the sequential fast path the paper is about
// — so the parallel fold is sound only under the following contract:
//
//   - Quiescence. Mutators are stopped for the duration of the fold, exactly
//     as in the sequential blocking protocol. The fork (starting the worker
//     goroutines) and the join (sync.WaitGroup.Wait before the merge) give
//     the happens-before edges: mutations before the fold are visible to
//     every worker, and flag resets by workers are visible to mutators that
//     resume after the fold returns.
//   - Disjoint roots. Every object must be reachable from exactly one of the
//     roots handed to the fold. Two roots sharing a descendant would race on
//     its modified flag from two workers, and — worse for correctness — the
//     sequential fold records a shared object once (the first visit clears
//     the flag) while a parallel fold could record it twice, diverging from
//     the sequential bytes. The difftest harness checks this property cannot
//     bite on the shipped workloads; the race detector enforces it on any
//     new one.
//
// Within one worker everything is ordinary sequential Go; across workers the
// only shared state is the per-root chunk table, written at distinct indices
// and published by the join.
package ckpt
