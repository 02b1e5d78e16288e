package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const samplePkg = `
package sample

import "ickpt/ckpt"

type Leaf struct {
	Info ckpt.Info
	V    int64 ` + "`ckpt:\"field\"`" + `
}
`

func writeSample(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "types.go"), []byte(samplePkg), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func silence(t *testing.T) {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = old
		devnull.Close()
	})
}

func TestRunWriteAndCheck(t *testing.T) {
	silence(t)
	dir := writeSample(t)
	if err := run(dir, "", "", false); err != nil {
		t.Fatalf("run(write): %v", err)
	}
	out := filepath.Join(dir, "zz_derived_ckpt.go")
	src, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "func (x *Leaf) Record") {
		t.Error("generated file missing protocol")
	}
	// Fresh check passes.
	if err := run(dir, "", "", true); err != nil {
		t.Errorf("check after write: %v", err)
	}
	// Stale check fails.
	if err := os.WriteFile(out, []byte("package sample\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(dir, "", "", true); err == nil {
		t.Error("stale file passed check")
	}
}

func TestRunOutAndPrefix(t *testing.T) {
	silence(t)
	dir := writeSample(t)
	out := filepath.Join(dir, "custom.go")
	if err := run(dir, out, "pfx.", false); err != nil {
		t.Fatalf("run: %v", err)
	}
	src, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	s := string(src)
	if !strings.Contains(s, `"pfx.Leaf"`) || !strings.Contains(s, "func Registry()") {
		t.Errorf("options not applied:\n%s", s)
	}
}

func TestRunBadDir(t *testing.T) {
	if err := run(t.TempDir(), "", "", false); err == nil {
		t.Error("empty package dir accepted")
	}
}
