package interp

import (
	"ickpt/ckpt"
	"ickpt/wire"
)

// Type identifiers for the interpreter heap.
var (
	TypeMachine = ckpt.TypeIDOf("interp.machine")
	TypeEnv     = ckpt.TypeIDOf("interp.env")
	TypeClosure = ckpt.TypeIDOf("interp.closure")
	TypePair    = ckpt.TypeIDOf("interp.pair")
	TypeBox     = ckpt.TypeIDOf("interp.box")
	TypeProgram = ckpt.TypeIDOf("interp.program")
)

// Register installs the interpreter's factories into reg, so checkpoint
// bodies containing interpreter state can be rebuilt.
func Register(reg *ckpt.Registry) {
	reg.MustRegister("interp.machine", func(id uint64) ckpt.Restorable {
		return &Machine{Info: ckpt.RestoredInfo(id)}
	})
	reg.MustRegister("interp.env", func(id uint64) ckpt.Restorable {
		return &Env{Info: ckpt.RestoredInfo(id)}
	})
	reg.MustRegister("interp.closure", func(id uint64) ckpt.Restorable {
		return &Closure{Info: ckpt.RestoredInfo(id)}
	})
	reg.MustRegister("interp.pair", func(id uint64) ckpt.Restorable {
		return &Pair{Info: ckpt.RestoredInfo(id)}
	})
	reg.MustRegister("interp.box", func(id uint64) ckpt.Restorable {
		return &Box{Info: ckpt.RestoredInfo(id)}
	})
	reg.MustRegister("interp.program", func(id uint64) ckpt.Restorable {
		return &Program{Info: ckpt.RestoredInfo(id)}
	})
}

// NewRegistry returns a registry holding exactly the interpreter's types.
func NewRegistry() *ckpt.Registry {
	reg := ckpt.NewRegistry()
	Register(reg)
	return reg
}

// Env is one environment frame: a mutable name→value map stored as parallel
// slices (lookup order matters for determinism), chained to its parent.
// Frames are heap objects so closures can capture them and checkpoints can
// carry them.
type Env struct {
	Info   ckpt.Info
	Parent *Env
	Names  []string
	Vals   []Value
}

var _ Obj = (*Env)(nil)

func (e *Env) CheckpointInfo() *ckpt.Info    { return &e.Info }
func (e *Env) CheckpointTypeID() ckpt.TypeID { return TypeEnv }
func (e *Env) SelfDescribedCheckpoint()      {}

//ckptvet:ignore recordfold flat heap table: Machine.Fold visits every heap object, so heap objects fold nothing (cycles stay safe) and child ids resolve through the Rebuilder
func (e *Env) Fold(*ckpt.Writer) error { return nil }

func (e *Env) Record(enc *wire.Encoder) {
	if e.Parent != nil {
		enc.Uvarint(e.Parent.Info.ID())
	} else {
		enc.Uvarint(ckpt.NilID)
	}
	enc.Uvarint(uint64(len(e.Names)))
	for i, n := range e.Names {
		enc.String(n)
		EncodeValue(enc, e.Vals[i])
	}
}

func (e *Env) Restore(d *wire.Decoder, res *ckpt.Resolver) error {
	parent, err := ckpt.ResolveAs[*Env](res, d.Uvarint())
	if err != nil {
		return err
	}
	e.Parent = parent
	n := d.Count(2) // a name's length byte and a value's kind byte
	e.Names = e.Names[:0]
	e.Vals = e.Vals[:0]
	for i := 0; i < n; i++ {
		name := d.String()
		v, err := DecodeValue(d, res)
		if err != nil {
			return err
		}
		e.Names = append(e.Names, name)
		e.Vals = append(e.Vals, v)
	}
	return d.Err()
}

// lookup finds name in the frame chain, returning the frame and slot.
func (e *Env) lookup(name string) (*Env, int) {
	for f := e; f != nil; f = f.Parent {
		for i := len(f.Names) - 1; i >= 0; i-- {
			if f.Names[i] == name {
				return f, i
			}
		}
	}
	return nil, -1
}

// define binds name in this frame (shadowing any outer binding) and marks
// the frame dirty.
func (e *Env) define(name string, v Value) {
	e.Names = append(e.Names, name)
	e.Vals = append(e.Vals, v)
	e.Info.Mark()
}

// Closure is a lambda value: parameter names, body node indices into the
// owning machine's program, and the captured environment. Bodies checkpoint
// as plain integers because Parse is deterministic (see Prog).
type Closure struct {
	Info   ckpt.Info
	Params []string
	Body   []int
	Env    *Env
}

var _ Obj = (*Closure)(nil)

func (c *Closure) CheckpointInfo() *ckpt.Info    { return &c.Info }
func (c *Closure) CheckpointTypeID() ckpt.TypeID { return TypeClosure }
func (c *Closure) SelfDescribedCheckpoint()      {}

//ckptvet:ignore recordfold flat heap table: Machine.Fold visits every heap object, so heap objects fold nothing (cycles stay safe) and child ids resolve through the Rebuilder
func (c *Closure) Fold(*ckpt.Writer) error { return nil }

func (c *Closure) Record(enc *wire.Encoder) {
	if c.Env != nil {
		enc.Uvarint(c.Env.Info.ID())
	} else {
		enc.Uvarint(ckpt.NilID)
	}
	enc.Uvarint(uint64(len(c.Params)))
	for _, p := range c.Params {
		enc.String(p)
	}
	enc.Uvarint(uint64(len(c.Body)))
	for _, b := range c.Body {
		enc.Uvarint(uint64(b))
	}
}

func (c *Closure) Restore(d *wire.Decoder, res *ckpt.Resolver) error {
	env, err := ckpt.ResolveAs[*Env](res, d.Uvarint())
	if err != nil {
		return err
	}
	c.Env = env
	np := d.Count(1) // a parameter name's length byte
	c.Params = c.Params[:0]
	for i := 0; i < np; i++ {
		c.Params = append(c.Params, d.String())
	}
	nb := d.Count(1) // a body index's uvarint
	c.Body = c.Body[:0]
	for i := 0; i < nb; i++ {
		c.Body = append(c.Body, int(d.Uvarint()))
	}
	return d.Err()
}

// Pair is a mutable cons cell. set-cdr! onto an ancestor makes the heap
// cyclic, which the flat-table fold handles and a recursive per-object fold
// would not.
type Pair struct {
	Info ckpt.Info
	Car  Value
	Cdr  Value
}

var _ Obj = (*Pair)(nil)

func (p *Pair) CheckpointInfo() *ckpt.Info    { return &p.Info }
func (p *Pair) CheckpointTypeID() ckpt.TypeID { return TypePair }
func (p *Pair) SelfDescribedCheckpoint()      {}
func (p *Pair) Fold(*ckpt.Writer) error       { return nil }

func (p *Pair) Record(enc *wire.Encoder) {
	EncodeValue(enc, p.Car)
	EncodeValue(enc, p.Cdr)
}

func (p *Pair) Restore(d *wire.Decoder, res *ckpt.Resolver) error {
	car, err := DecodeValue(d, res)
	if err != nil {
		return err
	}
	cdr, err := DecodeValue(d, res)
	if err != nil {
		return err
	}
	p.Car, p.Cdr = car, cdr
	return d.Err()
}

// Box is a single mutable cell — the interpreter's cheapest mutation target,
// which is what the allocation-free churn benchmarks hammer.
type Box struct {
	Info ckpt.Info
	Val  Value
}

var _ Obj = (*Box)(nil)

func (b *Box) CheckpointInfo() *ckpt.Info    { return &b.Info }
func (b *Box) CheckpointTypeID() ckpt.TypeID { return TypeBox }
func (b *Box) SelfDescribedCheckpoint()      {}
func (b *Box) Fold(*ckpt.Writer) error       { return nil }

func (b *Box) Record(enc *wire.Encoder) {
	EncodeValue(enc, b.Val)
}

func (b *Box) Restore(d *wire.Decoder, res *ckpt.Resolver) error {
	v, err := DecodeValue(d, res)
	if err != nil {
		return err
	}
	b.Val = v
	return d.Err()
}

// Program is the heap-resident program text. Only the source checkpoints;
// Restore re-parses it, and Parse's determinism guarantees the node table —
// and with it every closure body index — comes back identical.
type Program struct {
	Info ckpt.Info
	Prog *Prog
}

var _ Obj = (*Program)(nil)

func (p *Program) CheckpointInfo() *ckpt.Info    { return &p.Info }
func (p *Program) CheckpointTypeID() ckpt.TypeID { return TypeProgram }
func (p *Program) SelfDescribedCheckpoint()      {}
func (p *Program) Fold(*ckpt.Writer) error       { return nil }

func (p *Program) Record(enc *wire.Encoder) {
	enc.String(p.Prog.Src)
}

func (p *Program) Restore(d *wire.Decoder, _ *ckpt.Resolver) error {
	src := d.String()
	if err := d.Err(); err != nil {
		return err
	}
	prog, err := Parse(src)
	if err != nil {
		return err
	}
	p.Prog = prog
	return nil
}
