package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommittedInferredPatternsFresh is the drift gate at test level: the
// committed zz_inferred_patterns.go must match what ckptinfer infers from
// today's source. A phase whose write-set changed without regeneration
// fails here (and in `make infer-check`).
func TestCommittedInferredPatternsFresh(t *testing.T) {
	if err := run("ickpt/internal/analysis", "../..", "", "Catalog()", "Attributes", true, &strings.Builder{}); err != nil {
		t.Errorf("committed inferred patterns out of date: %v", err)
	}
}

// TestWriteMatchesCommitted regenerates into a temp file and compares the
// bytes with the committed provider file.
func TestWriteMatchesCommitted(t *testing.T) {
	out := filepath.Join(t.TempDir(), "zz_inferred_patterns.go")
	var log strings.Builder
	if err := run("ickpt/internal/analysis", "../..", out, "Catalog()", "Attributes", false, &log); err != nil {
		t.Fatalf("run: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../internal/analysis/zz_inferred_patterns.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("regenerated providers differ from committed zz_inferred_patterns.go")
	}
	if !strings.Contains(log.String(), "3 patterns") {
		t.Errorf("run log %q does not report 3 patterns", log.String())
	}
}

// TestNoPhasesIsError pins that analyzing a package without any
// //ckptvet:phase annotation fails rather than writing an empty file.
func TestNoPhasesIsError(t *testing.T) {
	err := run("ickpt/wire", "../..", filepath.Join(t.TempDir(), "out.go"), "", "", false, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "no //ckptvet:phase annotations") {
		t.Errorf("run on an unannotated package = %v, want phase-annotation error", err)
	}
}

// TestMultiplePackagesIsError pins the exactly-one-package contract.
func TestMultiplePackagesIsError(t *testing.T) {
	err := run("ickpt/internal/lintfixtures/...", "../..", "", "", "", false, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "name exactly one") {
		t.Errorf("run on a multi-package pattern = %v, want exactly-one error", err)
	}
}

// TestCatalogRequiresRoot pins the flag contract.
func TestCatalogRequiresRoot(t *testing.T) {
	if err := run("ickpt/internal/analysis", "../..", "", "Catalog()", "", false, &strings.Builder{}); err == nil {
		t.Error("-catalog without -root accepted")
	}
}

// TestNoCatalogIsError pins that a package with annotated phases but no
// spec.Class literals fails, naming the generator that writes a catalog,
// rather than inferring patterns over zero classes.
func TestNoCatalogIsError(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module nocatalog\n\ngo 1.22\n",
		"phase.go": `package nocatalog

// Counter is state a phase writes; no catalog declares it.
type Counter struct{ N int }

//ckptvet:phase PatternBump
func Bump(c *Counter) { c.N++ }
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	err := run(".", dir, filepath.Join(dir, "out.go"), "", "", false, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "no spec.Class literals") || !strings.Contains(err.Error(), "ckptderive") {
		t.Errorf("run on a package without a catalog = %v, want an error naming ckptderive", err)
	}
	if _, statErr := os.Stat(filepath.Join(dir, "out.go")); statErr == nil {
		t.Error("a provider file was written for a package without a catalog")
	}
}
