package difftest

import (
	"runtime"
	"strings"
	"testing"

	"ickpt/ckpt"
	"ickpt/internal/faultfs"
	"ickpt/internal/interp"
	"ickpt/stablelog"
	"ickpt/wire"
)

// Recovery must refuse a hostile input in memory bounded by the input: a
// Restore that trusts a decoded count allocates for elements no byte backs.
// The bound is loose enough for the traces' own bodies (a Go object costs
// tens of bytes per payload byte) and far below what one such count costs.
const (
	allocPerInputByte = 1 << 10
	allocSlack        = 4 << 20 // the log scan's window, and the rebuilder's maps
	maxFuzzInput      = 1 << 16
)

// recoverySeeds returns the registries of the standard traces, in Traces
// order, and per registry the body sequences its trace checkpoints: one
// replay plain and one delta-encoded, with the reference engine. interpReg
// is the index of an interpreter trace's registry.
func recoverySeeds(f *testing.F) (regs []*ckpt.Registry, replays [][][][]byte, interpReg uint8) {
	for i, tr := range Traces() {
		if strings.HasPrefix(tr.Name, "interp") {
			interpReg = uint8(i)
		}
		var runs [][][]byte
		for _, st := range []Strategy{{Name: "sequential"}, {Name: "delta", Delta: true}} {
			bodies, pop, err := Replay(tr, "virtual", st)
			if err != nil {
				f.Fatal(err)
			}
			runs = append(runs, bodies)
			if len(runs) == 1 {
				regs = append(regs, pop.Registry)
			}
		}
		replays = append(replays, runs)
	}
	return regs, replays, interpReg
}

// hostileBody frames one payload as the single record of a full body.
func hostileBody(typ ckpt.TypeID, payload []byte) []byte {
	body := wire.NewEncoder(32)
	body.Byte(1) // body version
	body.Byte(byte(ckpt.Full))
	body.Uvarint(1) // epoch
	body.Uvarint(1) // object id
	body.Uvarint(uint64(typ))
	body.Uvarint(uint64(len(payload)))
	body.Raw(payload)
	return body.Bytes()
}

// hostileInterpBodies are well-framed bodies whose interp payloads lie about
// a count: six bytes each, claiming far more elements than follow.
func hostileInterpBodies() [][]byte {
	closure := wire.NewEncoder(8)
	closure.Uvarint(ckpt.NilID) // environment
	closure.Uvarint(0)          // parameters
	closure.Uvarint(1 << 24)    // body indices, none of which follow
	env := wire.NewEncoder(8)
	env.Uvarint(ckpt.NilID) // parent
	env.Uvarint(1 << 20)    // bindings, of which one follows
	env.String("")
	env.Byte(byte(interp.KNil))
	return [][]byte{
		hostileBody(interp.TypeClosure, closure.Bytes()),
		hostileBody(interp.TypeEnv, env.Bytes()),
	}
}

// checkAllocBound runs recovery and fails if it allocated more than the
// bound for an input of n bytes.
func checkAllocBound(t *testing.T, n int, recovery func()) {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	recovery()
	runtime.ReadMemStats(&m1)
	if grew, bound := m1.TotalAlloc-m0.TotalAlloc, uint64(allocPerInputByte*n+allocSlack); grew > bound {
		t.Fatalf("recovering %d input bytes allocated %d bytes, bound %d", n, grew, bound)
	}
}

// frames encodes bodies as one fuzz input: each body a length-prefixed
// field.
func frames(bodies ...[]byte) []byte {
	e := wire.NewEncoder(0)
	for _, b := range bodies {
		e.BytesField(b)
	}
	return e.Bytes()
}

// FuzzRecoverBuild replays a run of bodies through Rebuilder.ApplyRun and
// Build, over the registry of one standard trace. The input holds the run as
// length-prefixed bodies; framing past the last whole body is ignored. Every
// input ends in success or an error, never a panic, in memory bounded by its
// size. Seeds run to 50 KB: fuzz with -fuzzminimizetime 1s (make fuzz-smoke
// does), or the fuzzer spends a minute minimizing each new input.
func FuzzRecoverBuild(f *testing.F) {
	regs, replays, interpReg := recoverySeeds(f)
	for i, runs := range replays {
		for _, bodies := range runs {
			f.Add(uint8(i), frames(bodies...))
			f.Add(uint8(i), frames(bodies[:2]...))
		}
	}
	for _, b := range hostileInterpBodies() {
		f.Add(interpReg, frames(b))
	}
	f.Fuzz(func(t *testing.T, which uint8, in []byte) {
		if len(in) > maxFuzzInput {
			t.Skip()
		}
		var run [][]byte
		for d := wire.NewDecoder(in); d.Len() > 0; {
			b := d.BytesField()
			if d.Err() != nil {
				break
			}
			run = append(run, b)
		}
		rb := ckpt.NewRebuilder(regs[int(which)%len(regs)])
		checkAllocBound(t, len(in), func() {
			if rb.ApplyRun(run) == nil {
				rb.Build(nil)
			}
		})
	})
}

// logImage appends bodies to a fresh log on an in-memory file system and
// returns the file's bytes.
func logImage(f *testing.F, bodies [][]byte) []byte {
	m := faultfs.NewMem()
	lg, err := stablelog.Create("seed.log", stablelog.WithFS(m))
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range bodies {
		info, err := ckpt.InspectBodyKinds(b, nil)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := lg.Append(info.Mode, info.Epoch, b); err != nil {
			f.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		f.Fatal(err)
	}
	return m.Snapshot()["seed.log"]
}

// FuzzRecoverBuildLog is FuzzRecoverBuild over a whole log image: Open it on
// an in-memory file system, rewind every stream it holds to that stream's
// latest epoch and Build. Every input ends in success or an error, never a
// panic, in memory bounded by its size.
func FuzzRecoverBuildLog(f *testing.F) {
	regs, replays, interpReg := recoverySeeds(f)
	for i, runs := range replays {
		for _, bodies := range runs {
			f.Add(uint8(i), logImage(f, bodies))
		}
	}
	for _, b := range hostileInterpBodies() {
		f.Add(interpReg, logImage(f, [][]byte{b}))
	}
	f.Fuzz(func(t *testing.T, which uint8, img []byte) {
		if len(img) > maxFuzzInput {
			t.Skip()
		}
		reg := regs[int(which)%len(regs)]
		checkAllocBound(t, len(img), func() {
			m := faultfs.NewMemFromState(map[string][]byte{"f.log": img})
			lg, err := stablelog.Open("f.log", stablelog.WithFS(m))
			if err != nil {
				return
			}
			defer lg.Close()
			for _, id := range lg.StreamIDs() {
				run, err := lg.StreamRun(id)
				if err != nil {
					continue
				}
				rb := ckpt.NewRebuilder(reg)
				if _, err := lg.RewindTo(rb, run[len(run)-1].Epoch); err == nil {
					rb.Build(nil)
				}
			}
		})
	})
}
