// Package derivetest is the test workload for the derive preprocessor: a
// small project tracker whose checkpoint protocol is entirely generated
// (see zz_derived_ckpt.go, produced by cmd/ckptderive).
package derivetest

//go:generate go run ickpt/cmd/ckptderive -dir .

import "ickpt/ckpt"

// Project is a compound structure: scalar state, a single child and a list.
type Project struct {
	Info   ckpt.Info
	Name   ckpt.Cell[string] `ckpt:"field"`
	Budget float64           `ckpt:"field"`
	Done   bool              `ckpt:"field"`
	Owner  *Person           `ckpt:"child"`
	Tasks  *Task             `ckpt:"list"`
}

// Task is a list element with mixed-width scalar fields.
type Task struct {
	Info   ckpt.Info
	Title  string `ckpt:"field"`
	Points int32  `ckpt:"field"`
	Flags  uint16 `ckpt:"field"`
	Blob   []byte `ckpt:"field"`
	Next   *Task  `ckpt:"next"`
}

// Person is a leaf with a tracked counter.
type Person struct {
	Info  ckpt.Info
	Name  string           `ckpt:"field"`
	Karma ckpt.Cell[int64] `ckpt:"field"`
}
