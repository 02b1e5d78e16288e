package tenant

import (
	"fmt"

	"ickpt/ckpt"
	"ickpt/stablelog"
)

// TenantIDs returns the distinct tenant ids with at least one segment in a
// shared log, in ascending order — including tenants that have no full
// checkpoint to recover from. A tenant id is the log's stream id, so this
// and RecoveryRun are lookups in the chain catalog the log caches.
func TenantIDs(l *stablelog.Log) []uint32 {
	return l.StreamIDs()
}

// RecoveryRun returns one tenant's latest replay chain out of a shared
// log: its most recent Full segment and every later segment of the same
// tenant, in log order (stablelog.Log.StreamRun). Other tenants' segments
// interleave, so sequence numbers increase but need not be consecutive. The
// slice is the caller's. Returns stablelog.ErrNoFull when the tenant has no
// full checkpoint.
func RecoveryRun(l *stablelog.Log, id uint32) ([]stablelog.SegmentInfo, error) {
	return l.StreamRun(id)
}

// Recover replays one tenant's latest run out of a shared log into rb. It is
// the log's own replay at the tenant's latest epoch (stablelog.Log.RewindTo):
// the chain is validated, read (per-payload CRC, delta coherence) and
// applied atomically, so on any error — no full anchor, incoherent run, read
// failure, corrupt body — rb is unchanged. Only the latest run must be
// coherent, as for Log.Recover: a tenant whose older epochs repeat (a writer
// that restarted its numbering) still recovers. Other tenants' interleaved
// segments are untouched, so N tenants recover independently from the same
// file. On a log stablelog.Open opened, the
// chain's payloads are those Open's scan kept (a shared log's, from its
// second stream on), served in place rather than read again: restarting
// every tenant reads the file once, and the kept bytes go at the log's first
// write.
func Recover(l *stablelog.Log, id uint32, rb *ckpt.Rebuilder) error {
	run, err := RecoveryRun(l, id)
	if err == nil {
		_, err = l.RewindTo(rb, run[len(run)-1].Epoch)
	}
	if err != nil {
		return fmt.Errorf("tenant %d: %w", id, err)
	}
	return nil
}
