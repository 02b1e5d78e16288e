package stablelog

// ScanWindowSize is the Open scan's window, for tests that build logs
// larger than it.
const ScanWindowSize = scanWindowSize

// OpenWindow is Open with a scan window of the given size, so tests can put
// window edges anywhere in a small file.
func OpenWindow(path string, window int, opts ...Option) (*Log, error) {
	return open(path, window, keepBudget, opts)
}

// KeepBudget is the most a shared log's Open keeps of its payloads.
const KeepBudget = keepBudget

// OpenBudget is Open with the given budget for kept payloads, so tests can
// put a log's size on either side of it.
func OpenBudget(path string, budget int, opts ...Option) (*Log, error) {
	return open(path, scanWindowSize, budget, opts)
}

// Kept returns the payload of segment seq as Open kept it, or false if the
// handle does not keep it.
func (l *Log) Kept(seq uint64) ([]byte, bool) {
	if seq == 0 || seq > uint64(len(l.segs)) || !l.keeps(seq) {
		return nil, false
	}
	return l.keptPayload(l.segs[seq-1]), true
}

// ReadRun is readRun, the replay read under Recover and RewindTo, for the
// tests that count its reads and allocations and check its bodies.
func (l *Log) ReadRun(run []SegmentInfo) ([][]byte, error) {
	return l.readRun(run)
}

// GatherSize is the capacity of the staging buffer, for tests that place
// bodies on either side of it.
const GatherSize = gatherSize

// StickyErr returns the writer's sticky error as an Append, Submit or Flush
// arriving right now would find it, without waiting for anything.
func (w *AsyncWriter) StickyErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Parked returns the number of producers waiting in push for queue room.
func (w *AsyncWriter) Parked() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.parked
}
