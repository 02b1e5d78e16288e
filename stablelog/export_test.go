package stablelog

// ScanWindowSize is the Open scan's window, for tests that build logs
// larger than it.
const ScanWindowSize = scanWindowSize

// OpenWindow is Open with a scan window of the given size, so tests can put
// window edges anywhere in a small file.
func OpenWindow(path string, window int, opts ...Option) (*Log, error) {
	return open(path, window, opts)
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
