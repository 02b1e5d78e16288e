package ckpt

import "fmt"

// Factory constructs an empty ("shell") object carrying the given restored
// id. The Rebuilder later fills the shell by calling its Restore method.
type Factory func(id uint64) Restorable

// Registry maps type names to stable TypeIDs and factories. Register every
// checkpointable type before rebuilding state from a checkpoint.
//
// Registry is safe to build once and share; it must not be mutated while a
// Rebuilder is using it.
type Registry struct {
	factories map[TypeID]Factory
	names     map[TypeID]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		factories: make(map[TypeID]Factory),
		names:     make(map[TypeID]string),
	}
}

// register associates name (and its derived TypeID) with a factory. It
// returns the TypeID, or ErrTypeConflict if the name, or another name that
// hashes to the same id, is already registered.
func (r *Registry) register(name string, f Factory) (TypeID, error) {
	t := TypeIDOf(name)
	if prev, ok := r.names[t]; ok {
		return t, fmt.Errorf("%w: %q and %q share type id %d", ErrTypeConflict, prev, name, t)
	}
	r.factories[t] = f
	r.names[t] = name
	return t, nil
}

// MustRegister associates name (and its derived TypeID) with a factory and
// returns the TypeID. It panics with ErrTypeConflict if the name, or another
// name that hashes to the same id, is already registered: registries are
// built at startup, where a conflict is a programming error.
func (r *Registry) MustRegister(name string, f Factory) TypeID {
	t, err := r.register(name, f)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the registered name for t, or "" if unknown.
func (r *Registry) Name(t TypeID) string { return r.names[t] }

// factory returns the factory for t.
func (r *Registry) factory(t TypeID) (Factory, bool) {
	f, ok := r.factories[t]
	return f, ok
}
