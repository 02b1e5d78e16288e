package spec

import "ickpt/ckpt"

// Register exposes Catalog.register, which MustRegister panics through, so
// the registration tests can read each error.
func (c *Catalog) Register(cl Class, b Binding) error { return c.register(cl, b) }

// Validate exposes Catalog.validate, which Compile and NewObserver run first.
func (c *Catalog) Validate() error { return c.validate() }

// Mode returns the checkpoint mode the plan was compiled for, so tests can
// start a writer in it.
func (p *Plan) Mode() ckpt.Mode { return p.mode }
