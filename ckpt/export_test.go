package ckpt

import (
	"fmt"

	"ickpt/wire"
)

// CheckServingHashes returns an error naming the first entry that serves
// diffs while its stored fingerprint is not wire.DeltaBaseHash of its head —
// the hash the next delta against it will embed. Heads are patched outside
// the cache's lock, so it must not run concurrently with a fold.
func (c *ShadowCache) CheckServingHashes() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, e := range c.entries {
		if !e.stale && e.hash != wire.DeltaBaseHash(e.head) {
			return fmt.Errorf("object %d: stored hash %#x, head hashes to %#x", id, e.hash, wire.DeltaBaseHash(e.head))
		}
	}
	return nil
}

// CommittedBase returns a copy of the base the next emit of id would be
// diffed against: the object's head, or nil when it has none or the entry is
// stale. Tests assert the commit/abort contract with it (an abort must leave
// no base behind). Emitters patch heads outside the cache's lock, so it must
// not be called concurrently with a fold on the same cache.
func (c *ShadowCache) CommittedBase(id uint64) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[id]
	if e == nil || e.stale {
		return nil
	}
	return append([]byte(nil), e.head...)
}

// Advance exposes Domain.advance, which only Build calls, to the id-space
// tests.
func (d *Domain) Advance(id uint64) { d.advance(id) }

// Len returns the number of objects registered in the tracker's view.
func (t *Tracker) Len() int { return t.view.Len() }
