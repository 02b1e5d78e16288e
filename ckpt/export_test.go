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
