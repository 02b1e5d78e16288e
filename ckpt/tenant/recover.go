package tenant

import (
	"fmt"

	"ickpt/ckpt"
	"ickpt/stablelog"
)

// TenantIDs returns the distinct tenant ids with at least one segment in a
// shared log, in ascending order — including tenants that have no full
// checkpoint to recover from. A tenant id is the log's stream id, so this
// and RecoveryRun are lookups in the stream index the log caches.
func TenantIDs(l *stablelog.Log) []uint32 {
	return l.StreamIDs()
}

// RecoveryRun returns one tenant's latest replay chain out of a shared
// log: its most recent Full segment and every later segment of the same
// tenant, in log order. Unlike stablelog.RecoveryRun the chain is not
// contiguous in the log — other tenants' segments interleave — so sequence
// numbers increase but need not be consecutive. The slice is the caller's.
// Returns stablelog.ErrNoFull when the tenant has no full checkpoint.
func RecoveryRun(l *stablelog.Log, id uint32) ([]stablelog.SegmentInfo, error) {
	run, err := l.StreamRun(id)
	if err != nil {
		return nil, fmt.Errorf("tenant %d: %w", id, err)
	}
	return run, nil
}

// validateRun checks a filtered per-tenant run for coherence — anchored by
// a Full, no second Full mid-run, sequence numbers and local epochs
// strictly increasing. It is the per-tenant analogue of
// stablelog.ValidateRun, minus the consecutive-sequence rule a shared log
// cannot satisfy. Violations wrap stablelog.ErrIncoherent.
func validateRun(id uint32, run []stablelog.SegmentInfo) error {
	if len(run) == 0 {
		return fmt.Errorf("%w: tenant %d: empty run", stablelog.ErrIncoherent, id)
	}
	if run[0].Mode != ckpt.Full {
		return fmt.Errorf("%w: tenant %d: run starts with an incremental (seq %d)",
			stablelog.ErrIncoherent, id, run[0].Seq)
	}
	for i := 1; i < len(run); i++ {
		prev, cur := run[i-1], run[i]
		if cur.Mode != ckpt.Incremental {
			return fmt.Errorf("%w: tenant %d: full checkpoint mid-run (seq %d)",
				stablelog.ErrIncoherent, id, cur.Seq)
		}
		if cur.Seq <= prev.Seq {
			return fmt.Errorf("%w: tenant %d: seq not increasing (%d after %d)",
				stablelog.ErrIncoherent, id, cur.Seq, prev.Seq)
		}
		_, pe := SplitEpoch(prev.Epoch)
		_, ce := SplitEpoch(cur.Epoch)
		if ce <= pe {
			return fmt.Errorf("%w: tenant %d: local epoch not increasing at seq %d (%d after %d)",
				stablelog.ErrIncoherent, id, cur.Seq, ce, pe)
		}
	}
	return nil
}

// Recover replays one tenant's latest run out of a shared log into rb,
// validating the filtered chain first, reading it through the log's run
// reader (stablelog.Log.ReadRun: per-payload CRC, delta coherence) and
// applying it atomically: on any error — no full anchor, incoherent chain,
// read failure, corrupt body — rb is unchanged. Other tenants' interleaved
// segments are untouched, so N tenants recover independently from the same
// file.
func Recover(l *stablelog.Log, id uint32, rb *ckpt.Rebuilder) error {
	run, err := RecoveryRun(l, id)
	if err != nil {
		return err
	}
	if err := validateRun(id, run); err != nil {
		return err
	}
	bodies, err := l.ReadRun(run)
	if err != nil {
		return fmt.Errorf("tenant %d: %w", id, err)
	}
	if err := rb.ApplyRun(bodies); err != nil {
		return fmt.Errorf("tenant %d: replay run at seq %d: %w", id, run[0].Seq, err)
	}
	return nil
}
