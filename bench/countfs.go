package main

import (
	"encoding/binary"
	"os"
	"sync"

	"ickpt/internal/faultfs"
)

// fsCounts is what the filesystem decorator has seen so far.
type fsCounts struct {
	writes, writeBytes int64
	fsyncs             int64
	reads, readBytes   int64
	writeNs            int64
}

func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{
		writes:     a.writes - b.writes,
		writeBytes: a.writeBytes - b.writeBytes,
		fsyncs:     a.fsyncs - b.fsyncs,
		reads:      a.reads - b.reads,
		readBytes:  a.readBytes - b.readBytes,
		writeNs:    a.writeNs - b.writeNs,
	}
}

// countFS decorates the real filesystem with device counts and timings: the
// stablelog.fs layer as seen from outside, through stablelog.WithFS. It also
// tracks, per file, how many leading bytes an fsync has made durable — the
// offset a power cut would keep — which the acked ⇒ durable checks read.
//
// faultfs.Mem would give the same numbers but journals every operation
// (gigabytes of heap and half the throughput over a long pass), so the log
// device is a real file in a fresh directory per round.
type countFS struct {
	inner faultfs.FS

	mu       sync.Mutex
	c        fsCounts
	fsyncNs  []int64          // one duration per fsync
	synced   map[string]int64 // file name → durable prefix length
	tr       *tracer          // non-nil while a traced pass wants device spans
	curEpoch uint64           // epoch of the segment being written
}

func newCountFS() *countFS {
	return &countFS{inner: faultfs.OS{}, synced: make(map[string]int64)}
}

func (fs *countFS) counts() fsCounts {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.c
}

// fsyncDurations returns the fsync durations recorded since index from.
func (fs *countFS) fsyncDurations(from int) []int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]int64(nil), fs.fsyncNs[from:]...)
}

func (fs *countFS) fsyncCount() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.fsyncNs)
}

// syncedLen returns the durable prefix length of the named file.
func (fs *countFS) syncedLen(name string) int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.synced[name]
}

// spans switches device spans on (a traced pass) or off (nil).
func (fs *countFS) spans(tr *tracer) {
	fs.mu.Lock()
	fs.tr = tr
	fs.mu.Unlock()
}

func (fs *countFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := fs.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	cf := &countFile{File: f, fs: fs}
	if flag&os.O_CREATE == 0 {
		// An existing file was durable before this process touched it.
		if st, err := os.Stat(name); err == nil {
			cf.end = st.Size()
			fs.mu.Lock()
			fs.synced[name] = cf.end
			fs.mu.Unlock()
		}
	}
	return cf, nil
}

func (fs *countFS) Rename(oldpath, newpath string) error {
	if err := fs.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	fs.mu.Lock()
	fs.synced[newpath] = fs.synced[oldpath]
	delete(fs.synced, oldpath)
	fs.mu.Unlock()
	return nil
}

func (fs *countFS) Remove(name string) error {
	fs.mu.Lock()
	delete(fs.synced, name)
	fs.mu.Unlock()
	return fs.inner.Remove(name)
}

func (fs *countFS) SyncDir(dir string) error { return fs.inner.SyncDir(dir) }

// countFile counts and times one file's operations. The log's segment
// header (stablelog.go: magic u32, seq u64, epoch u64, …) is sniffed off the
// write stream so device spans carry the epoch that caused them.
type countFile struct {
	faultfs.File
	fs  *countFS
	end int64 // one past the highest byte written
}

const (
	segmentMagic      = 0x5345474d
	segmentHeaderSize = 29
)

func (f *countFile) wrote(p []byte, off int64, n int, t0, t1 int64) {
	fs := f.fs
	fs.mu.Lock()
	fs.c.writes++
	fs.c.writeBytes += int64(n)
	fs.c.writeNs += t1 - t0
	if e := off + int64(n); e > f.end {
		f.end = e
	}
	if len(p) == segmentHeaderSize && binary.LittleEndian.Uint32(p) == segmentMagic {
		fs.curEpoch = binary.LittleEndian.Uint64(p[12:])
	}
	tr, epoch := fs.tr, fs.curEpoch
	fs.mu.Unlock()
	if tr != nil {
		tr.add(spFSWrite, t0, t1, epoch)
	}
}

func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := nowNs()
	n, err := f.File.WriteAt(p, off)
	f.wrote(p, off, n, t0, nowNs())
	return n, err
}

func (f *countFile) Write(p []byte) (int, error) {
	t0 := nowNs()
	n, err := f.File.Write(p)
	// Sequential writes happen only while a file is being created, from
	// offset 0 on, so the running end is the write offset.
	f.wrote(p, f.end, n, t0, nowNs())
	return n, err
}

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.fs.mu.Lock()
	f.fs.c.reads++
	f.fs.c.readBytes += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *countFile) Truncate(size int64) error {
	err := f.File.Truncate(size)
	if err == nil {
		fs := f.fs
		fs.mu.Lock()
		f.end = size
		if fs.synced[f.Name()] > size {
			fs.synced[f.Name()] = size
		}
		fs.mu.Unlock()
	}
	return err
}

func (f *countFile) Sync() error {
	fs := f.fs
	fs.mu.Lock()
	end := f.end
	fs.mu.Unlock()
	t0 := nowNs()
	err := f.File.Sync()
	t1 := nowNs()
	fs.mu.Lock()
	fs.c.fsyncs++
	fs.fsyncNs = append(fs.fsyncNs, t1-t0)
	if err == nil {
		fs.synced[f.Name()] = end
	}
	tr, epoch := fs.tr, fs.curEpoch
	fs.mu.Unlock()
	if tr != nil {
		tr.add(spFSSync, t0, t1, epoch)
	}
	return err
}
