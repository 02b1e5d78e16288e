// Package dirtywrite is a ckptvet test fixture. It seeds direct writes to
// tracked checkpointable state that bypass modification tracking, next to
// the accepted idioms the analyzer must not flag. Each `want` comment
// declares, as a regexp, the diagnostic the dirtywrite analyzer must report
// on that line; the harness in ckptlint/fixtures_test.go enforces an exact
// match between wants and findings.
//
// The package is excluded from cmd/ckptvet runs by default (the defects are
// the point) and carries no runtime behavior.
package dirtywrite

import "ickpt/ckpt"

// Counter is a tracked object with a cell field and a tagged scalar.
type Counter struct {
	Info  ckpt.Info
	Count ckpt.Cell[int]
	Label string `ckpt:"label"`
}

// NewCounter builds a fresh counter. A new object's modified flag starts
// set, so direct initialization writes are accepted.
func NewCounter(d *ckpt.Domain) *Counter {
	c := &Counter{Info: ckpt.NewInfo(d)}
	c.Count.V = 1
	c.Label = "new"
	return c
}

// BadIncrement mutates the tracked cell twice without the write barrier:
// the next incremental checkpoint would silently omit both changes.
func BadIncrement(c *Counter) {
	c.Count.V++                   // want `direct write to tracked cell c\.Count\.V bypasses modification tracking`
	c.Count.V = c.Count.Get() + 1 // want `direct write to tracked cell c\.Count\.V bypasses modification tracking`
}

// BadLabel writes a ckpt-tagged field without dirtying the owner.
func BadLabel(c *Counter) {
	c.Label = "renamed" // want `write to ckpt-tagged field c\.Label does not mark c modified`
}

// GoodSet uses the write barrier; nothing to report.
func GoodSet(c *Counter) {
	c.Count.Set(&c.Info, c.Count.Get()+1)
}

// GoodPaired pairs the direct write with an explicit Mark on the same
// owner; the dirty bit (and the mark-queue) is maintained by hand.
func GoodPaired(c *Counter) {
	c.Count.V = 7
	c.Label = "paired"
	c.Info.Mark()
}

// GoodMarkOn registers the owner with a tracker while dirtying it; the
// write rides on the same barrier.
func GoodMarkOn(c *Counter, tr *ckpt.Tracker) {
	c.Label = "tracked"
	c.Info.MarkOn(tr)
}

// BadRawSetModified maintains the modified flag by hand but never enqueues
// the owner: a tracker-driven O(dirty) checkpoint would miss the write.
// The write itself is accepted (the flag IS set); the raw call is the
// defect.
func BadRawSetModified(c *Counter) {
	c.Label = "flag only"
	c.Info.SetModified() // want `raw Info\.SetModified sets the flag but bypasses the dirty index`
}

// GoodFresh initializes an object built by a New* constructor; freshness
// exempts the writes.
func GoodFresh(d *ckpt.Domain) *Counter {
	c := NewCounter(d)
	c.Count.V = 42
	return c
}

// GoodWaived demonstrates the suppression syntax for a reviewed exception.
func GoodWaived(c *Counter) {
	//ckptvet:ignore dirtywrite fixture demonstrates the suppression syntax
	c.Count.V = 9
}

// GoodAborted rolls tracked state back after aborting the failed epoch:
// Session.Abort re-marks every object the epoch touched, so the direct
// writes are protocol-covered — the analyzer must stay silent.
func GoodAborted(c *Counter, s *ckpt.Session, epoch uint64) {
	s.Abort(epoch)
	c.Count.V = 0
	c.Label = "rolled back"
}

// GoodAckPath routes a persistence acknowledgement; its error half aborts
// and re-marks, so the rollback write is covered.
func GoodAckPath(c *Counter, s *ckpt.Session, epoch uint64, err error) {
	s.Ack(epoch, err)
	if err != nil {
		c.Label = "retrying"
	}
}
