// Command ckptinfer statically infers the modification pattern of every
// //ckptvet:phase-annotated function in a package and writes the patterns
// back as generated spec.Pattern providers — the inference half of the
// loop whose checking half is cmd/ckptvet.
//
// For each annotated phase, ckptinfer computes the function's
// interprocedural write-set (shared with the patternspec analyzer), maps
// the written Go types onto the package's specialization classes — its
// spec.Class literals, which cmd/ckptderive generates from the struct tags
// (a package without any is an error) — and emits the strongest pattern
// consistent with that write-set: every class the phase provably never
// writes is declared unmodified.
//
// Static inference is blind to writes it cannot attribute (reflection,
// cross-package mutation, calls through function values), so an inferred
// pattern may be too strong. With -catalog the generated file therefore
// also emits one guard constructor per pattern (spec.NewGuard): the
// specialized plan runs under verification and degrades to the generic
// structure-only plan on the first pattern violation — a stale inference
// costs performance, never a stale checkpoint.
//
// Usage:
//
//	ckptinfer -pkg PATTERN [-dir DIR] [-out FILE] [-catalog EXPR -root CLASS] [-check]
//
// The package pattern must resolve to exactly one package. Output defaults
// to zz_inferred_patterns.go inside the package directory. With -check,
// ckptinfer verifies the file is up to date instead of writing it (the
// `make infer-check` drift gate).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ickpt/ckptlint"
	"ickpt/internal/bta"
	"ickpt/internal/genmark"
)

func main() {
	var (
		pkg     = flag.String("pkg", ".", "package pattern to analyze (must match exactly one package)")
		dir     = flag.String("dir", ".", "module directory the pattern is resolved from")
		out     = flag.String("out", "", "output file (default PKGDIR/zz_inferred_patterns.go)")
		catalog = flag.String("catalog", "", "Go expression for the package's *spec.Catalog (enables guard constructors)")
		root    = flag.String("root", "", "root class name the guards compile for (required with -catalog)")
		check   = flag.Bool("check", false, "verify the output is up to date instead of writing")
	)
	flag.Parse()
	if err := run(*pkg, *dir, *out, *catalog, *root, *check, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ckptinfer:", err)
		os.Exit(1)
	}
}

func run(pattern, dir, out, catalog, root string, check bool, stdout io.Writer) error {
	if catalog != "" && root == "" {
		return fmt.Errorf("-catalog requires -root")
	}
	pkgs, err := ckptlint.Load(dir, pattern)
	if err != nil {
		return err
	}
	if len(pkgs) != 1 {
		return fmt.Errorf("pattern %q matched %d packages; name exactly one", pattern, len(pkgs))
	}
	cur := pkgs[0]
	apkg := &bta.Package{Fset: cur.Fset, Files: cur.Files, Types: cur.Types, Info: cur.Info}

	inferred := bta.InferPhases(apkg, []*bta.Package{apkg})
	if len(inferred) == 0 {
		return fmt.Errorf("no //ckptvet:phase annotations in %s", cur.PkgPath)
	}
	for _, ip := range inferred {
		if len(ip.ClassNames) == 0 {
			return fmt.Errorf("phase %s: %s has no spec.Class literals to infer a pattern over; generate its catalog with ckptderive",
				ip.Phase.Decl.Name.Name, cur.PkgPath)
		}
	}
	provs := make([]bta.Provider, len(inferred))
	for i, ip := range inferred {
		provs[i] = bta.ProviderFor(ip)
	}
	src, err := bta.GenerateProviders(bta.EmitConfig{
		Package: cur.Types.Name(),
		Source:  cur.PkgPath,
		Catalog: catalog,
		Root:    root,
	}, provs)
	if err != nil {
		return err
	}

	if out == "" {
		out = filepath.Join(cur.Dir, "zz_inferred_patterns.go")
	}
	if check {
		prev, err := os.ReadFile(out)
		if err != nil {
			return fmt.Errorf("%s is out of date; re-run ckptinfer", out)
		}
		if !genmark.IsGeneratedSource(prev) {
			return fmt.Errorf("%s is missing the generated-code marker (%s); re-run ckptinfer", out, genmark.Comment("ckptinfer"))
		}
		if !bytes.Equal(prev, src) {
			return fmt.Errorf("%s is out of date; re-run ckptinfer", out)
		}
		return nil
	}
	if err := os.WriteFile(out, src, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d bytes, %d patterns)\n", out, len(src), len(provs))
	return nil
}
