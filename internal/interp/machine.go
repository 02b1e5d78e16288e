package interp

import (
	"fmt"

	"ickpt/ckpt"
	"ickpt/wire"
)

// Machine is the interpreter's root object: it owns the program, the global
// environment, and the flat heap table of every object the program has
// allocated. The whole runtime state checkpoints through it.
//
// The heap is folded as a flat table — Machine.Fold visits every heap
// object, heap objects fold nothing — so cyclic and deeply nested values
// cost the traversal writer one visit per object, never a recursion.
//
// Heap ids are contiguous: the Machine takes the first id its domain issues
// for the interpreter, and every subsequent allocation goes through the
// machine's alloc helpers, so heap[i] always carries id firstHeapID+i. The
// machine record therefore encodes the heap as (firstID, count) instead of
// one id per object, keeping the root record O(1) in heap size.
//
// Machine is not safe for concurrent use.
type Machine struct {
	Info ckpt.Info

	dom     *ckpt.Domain
	prog    *Program
	globals *Env
	heap    []Obj

	pc       int    // index into prog.Prog.Tops of the next form
	steps    uint64 // top-level forms evaluated
	fuel     int64  // eval-node budget per step
	fuelLeft int64  // working counter, reset every step (never checkpointed)
	outHash  uint64 // FNV-1a rolling hash of printed output
	outCount uint64 // lines printed
	halted   bool
	haltMsg  string
	rbuf     []byte // print rendering scratch, never checkpointed

	// Slab arenas for the churn types: one heap allocation per block of
	// objects instead of one per object, with block-contiguous layout in
	// allocation (= id) order — the locality the tracker's dense scan
	// walks. Addresses are stable, so the embedded Infos are safe to
	// register in a tracker by address. Never checkpointed; a rebuilt
	// machine allocates its restored objects individually and slabs only
	// what it allocates after Bind.
	envs     ckpt.Slab[Env]
	closures ckpt.Slab[Closure]
	pairs    ckpt.Slab[Pair]
	boxes    ckpt.Slab[Box]
}

var _ Obj = (*Machine)(nil)

// DefaultFuel is the per-step eval budget used when callers pass fuel <= 0:
// generous for generated workloads, small enough that fuzzed loops halt
// quickly.
const DefaultFuel = 1 << 16

// NewMachine parses src and returns a machine ready to Step. The machine,
// its program, and its global environment are the first three objects
// allocated in d (the machine must be the interpreter's first allocation in
// the domain — see the heap-contiguity invariant above).
func NewMachine(d *ckpt.Domain, src string, fuel int64) (*Machine, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if fuel <= 0 {
		fuel = DefaultFuel
	}
	m := &Machine{Info: ckpt.NewInfo(d), dom: d, fuel: fuel}
	d.Adopt(m)
	p := &Program{Info: ckpt.NewInfo(d), Prog: prog}
	m.adopt(p)
	m.prog = p
	m.globals = m.newEnv(nil)
	return m, nil
}

// Bind re-attaches a rebuilt machine to a domain so resumed evaluation can
// allocate. The domain must already be advanced past every restored id
// (ckpt.Rebuilder.Build does this).
func (m *Machine) Bind(d *ckpt.Domain) { m.dom = d }

// Domain returns the domain the machine allocates from.
func (m *Machine) Domain() *ckpt.Domain { return m.dom }

// adopt appends a freshly allocated object to the heap table. Adopting into
// the domain at the allocation site is what keeps a tracker attached to the
// domain on the O(dirty) incremental path through allocation churn; marking
// the machine records the heap growth.
func (m *Machine) adopt(o Obj) {
	m.heap = append(m.heap, o)
	m.dom.Adopt(o)
	m.Info.Mark()
}

func (m *Machine) newEnv(parent *Env) *Env {
	e := m.envs.New()
	e.Info, e.Parent = ckpt.NewInfo(m.dom), parent
	m.adopt(e)
	return e
}

func (m *Machine) newClosure(params []string, body []int, env *Env) *Closure {
	c := m.closures.New()
	c.Info, c.Params, c.Body, c.Env = ckpt.NewInfo(m.dom), params, body, env
	m.adopt(c)
	return c
}

func (m *Machine) newPair(car, cdr Value) *Pair {
	p := m.pairs.New()
	p.Info, p.Car, p.Cdr = ckpt.NewInfo(m.dom), car, cdr
	m.adopt(p)
	return p
}

func (m *Machine) newBox(v Value) *Box {
	b := m.boxes.New()
	b.Info, b.Val = ckpt.NewInfo(m.dom), v
	m.adopt(b)
	return b
}

// PC returns the index of the next top-level form.
func (m *Machine) PC() int { return m.pc }

// Steps returns the number of top-level forms evaluated.
func (m *Machine) Steps() uint64 { return m.steps }

// Halted reports whether a runtime error or fuel exhaustion stopped the
// machine; HaltMsg carries the deterministic reason.
func (m *Machine) Halted() bool { return m.halted }

// HaltMsg returns the halt reason, empty while running.
func (m *Machine) HaltMsg() string { return m.haltMsg }

// OutHash returns the FNV-1a rolling hash over everything the program has
// printed — the machine's observable-output channel.
func (m *Machine) OutHash() uint64 { return m.outHash }

// OutCount returns the number of lines printed.
func (m *Machine) OutCount() uint64 { return m.outCount }

// HeapLen returns the number of heap objects (program and globals included).
func (m *Machine) HeapLen() int { return len(m.heap) }

// Done reports whether the machine has nothing left to run: every top-level
// form evaluated, or halted.
func (m *Machine) Done() bool {
	return m.halted || m.pc >= len(m.prog.Prog.Tops)
}

func (m *Machine) CheckpointInfo() *ckpt.Info    { return &m.Info }
func (m *Machine) CheckpointTypeID() ckpt.TypeID { return TypeMachine }
func (m *Machine) SelfDescribedCheckpoint()      {}

// Fold visits the flat heap table. Children re-enter through the writer, so
// every engine frames heap records identically; objects themselves fold
// nothing, which is what makes cyclic heaps safe.
//
//ckptvet:ignore recordfold flat heap table: Fold visits the whole heap (prog and globals included), Record encodes the heap as (firstID, count) rather than one id per child
func (m *Machine) Fold(w *ckpt.Writer) error {
	for _, o := range m.heap {
		if err := w.Checkpoint(o); err != nil {
			return err
		}
	}
	return nil
}

func (m *Machine) Record(enc *wire.Encoder) {
	enc.Varint(int64(m.pc))
	enc.Uvarint(m.steps)
	enc.Varint(m.fuel)
	enc.Uint64(m.outHash)
	enc.Uvarint(m.outCount)
	enc.Bool(m.halted)
	enc.String(m.haltMsg)
	enc.Uvarint(m.prog.Info.ID())
	enc.Uvarint(m.globals.Info.ID())
	if len(m.heap) == 0 {
		enc.Uvarint(ckpt.NilID)
		enc.Uvarint(0)
		return
	}
	enc.Uvarint(m.heap[0].CheckpointInfo().ID())
	enc.Uvarint(uint64(len(m.heap)))
}

//ckptvet:ignore recordfold Record's empty-heap branch encodes the same 11 values the decode reads; the per-branch op count differs, the wire sequence does not
func (m *Machine) Restore(d *wire.Decoder, res *ckpt.Resolver) error {
	m.pc = int(d.Varint())
	m.steps = d.Uvarint()
	m.fuel = d.Varint()
	m.outHash = d.Uint64()
	m.outCount = d.Uvarint()
	m.halted = d.Bool()
	m.haltMsg = d.String()
	prog, err := ckpt.ResolveAs[*Program](res, d.Uvarint())
	if err != nil {
		return err
	}
	globals, err := ckpt.ResolveAs[*Env](res, d.Uvarint())
	if err != nil {
		return err
	}
	first := d.Uvarint()
	count := d.Uvarint()
	if err := d.Err(); err != nil {
		return err
	}
	m.prog, m.globals = prog, globals
	m.heap = m.heap[:0]
	//ckptvet:ignore recordfold each slot resolves an object already rebuilt and reads no payload, so a count past the rebuilt ids fails at the first missing one
	for i := uint64(0); i < count; i++ {
		r, err := res.Lookup(first + i)
		if err != nil {
			return fmt.Errorf("interp: heap slot %d: %w", i, err)
		}
		o, ok := r.(Obj)
		if !ok {
			return fmt.Errorf("%w: heap slot %d holds %T", ckpt.ErrTypeConflict, i, r)
		}
		m.heap = append(m.heap, o)
	}
	return nil
}
