// Package hook carries the one unexported ckpt step that a driver built on
// ckpt in another package has to run: applying the re-marks an aborting
// Session.Ack parked (see ckpt.Session). parfold's sharded fold starts its
// bodies on writers detached from the session, and FoldDirty takes a
// tracker's dirty set before any body starts, so both call RemarkParked on
// the application's goroutine first; a writer that carries the session
// applies the re-marks in its own StartAt.
package hook

// RemarkParked applies the re-marks parked on a *ckpt.Session (nil is a
// no-op). Package ckpt sets it; it costs one atomic load while nothing is
// parked.
var RemarkParked func(session any)
