// Command ckptderive generates the checkpoint protocol for the annotated
// structs of a package: CheckpointInfo/CheckpointTypeID/Record/Fold/Restore
// methods, a restore registry, and the spec specialization catalog — the
// paper's "preprocessor" path to systematic checkpointing code.
//
// Usage:
//
//	ckptderive -dir PKGDIR [-out FILE] [-prefix P] [-check]
//
// The output defaults to zz_derived_ckpt.go inside the package directory.
// With -check, ckptderive verifies the file is up to date instead of
// writing it.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"ickpt/derive"
	"ickpt/internal/genmark"
)

func main() {
	var (
		dir    = flag.String("dir", "", "package directory to scan (required)")
		out    = flag.String("out", "", "output file (default DIR/zz_derived_ckpt.go)")
		prefix = flag.String("prefix", "", "registered type-name prefix (default: package name + \".\")")
		check  = flag.Bool("check", false, "verify the output is up to date instead of writing")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "usage: ckptderive -dir PKGDIR [-out FILE] [-prefix P] [-check]")
		os.Exit(2)
	}
	if err := run(*dir, *out, *prefix, *check); err != nil {
		fmt.Fprintln(os.Stderr, "ckptderive:", err)
		os.Exit(1)
	}
}

func run(dir, out, prefix string, check bool) error {
	src, err := derive.Generate(derive.Options{Dir: dir, Prefix: prefix})
	if err != nil {
		return err
	}
	if out == "" {
		out = filepath.Join(dir, "zz_derived_ckpt.go")
	}
	if check {
		prev, err := os.ReadFile(out)
		if err != nil {
			return fmt.Errorf("%s is out of date; re-run ckptderive", out)
		}
		if !genmark.IsGeneratedSource(prev) {
			return fmt.Errorf("%s is missing the generated-code marker (%s); re-run ckptderive", out, genmark.Comment("ckptderive"))
		}
		if !bytes.Equal(prev, src) {
			return fmt.Errorf("%s is out of date; re-run ckptderive", out)
		}
		return nil
	}
	if err := os.WriteFile(out, src, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes)\n", out, len(src))
	return nil
}
