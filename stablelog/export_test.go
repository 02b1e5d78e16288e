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
