package tenant_test

import (
	"os"
	"path/filepath"
	"testing"

	"ickpt/ckpt"
	"ickpt/ckpt/tenant"
	"ickpt/internal/faultfs"
	"ickpt/stablelog"
	"ickpt/wire"
)

// preadFS counts the ReadAt calls made on files opened through it.
type preadFS struct {
	faultfs.FS
	reads *int
}

type preadFile struct {
	faultfs.File
	reads *int
}

func (c preadFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return preadFile{f, c.reads}, nil
}

func (f preadFile) ReadAt(p []byte, off int64) (int, error) {
	*f.reads++
	return f.File.ReadAt(p, off)
}

// BenchmarkRecoverShared is a service restart over a real file: Open, then
// tenant.Recover of every tenant, on a log where 512 tenants' 64-segment
// chains interleave round by round, as a scheduler writes them. preads/op
// is how many ReadAt calls one restart makes.
func BenchmarkRecoverShared(b *testing.B) {
	const tenants, rounds = 512, 64
	path := filepath.Join(b.TempDir(), "shared.log")
	l, err := stablelog.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	e := wire.NewEncoder(64)
	for round := uint64(1); round <= rounds; round++ {
		for id := uint32(1); id <= tenants; id++ {
			mode := ckpt.Incremental
			if round == 1 {
				mode = ckpt.Full
			}
			// A version-1 body: two records of 16 payload bytes.
			e.Reset()
			e.Byte(1)
			e.Byte(byte(mode))
			e.Uvarint(round)
			for k := uint64(0); k < 2; k++ {
				e.Uvarint(uint64(id)<<8 | k)
				e.Uvarint(1)
				e.Uvarint(16)
				for j := 0; j < 16; j++ {
					e.Byte(byte(round))
				}
			}
			if _, err := l.Append(mode, tenant.WireEpoch(id, round), e.Bytes()); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}

	reads := 0
	fsys := preadFS{faultfs.OS{}, &reads}
	reg := ckpt.NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := stablelog.Open(path, stablelog.WithFS(fsys))
		if err != nil {
			b.Fatal(err)
		}
		for _, id := range tenant.TenantIDs(l) {
			rb := ckpt.NewRebuilder(reg)
			if err := tenant.Recover(l, id, rb); err != nil {
				b.Fatal(err)
			}
			if rb.Objects() != 2 {
				b.Fatalf("tenant %d: %d objects, want 2", id, rb.Objects())
			}
		}
		l.Close()
	}
	b.ReportMetric(float64(reads)/float64(b.N), "preads/op")
}
