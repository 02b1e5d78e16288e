package ckptlint_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ickpt/ckptlint"
)

// Reasons an exported name with no caller in another package of this module
// stays exported. Every allowlist entry starts with one of them.
const (
	// benchCaller: the benchmark module under bench/ calls it. bench/ is a
	// module of its own, outside `go test ./...` and frozen between benchmark
	// changes; the audit loads it only to check that the caller exists.
	benchCaller = "bench"
	// ifaceMethod: it is called through an interface the audit does not see,
	// such as an anonymous one in the standard library.
	ifaceMethod = "interface method"
	// testOracle: tests of other packages use it as a reference or probe.
	// The audit type-checks the module's tests to check that a _test.go
	// file of another package names it.
	testOracle = "test oracle"
	// userAPI: a documented entry point for programs built on the library,
	// exercised in this module only by tests. These are the next candidates.
	userAPI = "user API"
)

// apiAllowlist names each exported identifier the audit flags but the tree
// keeps, keyed "importpath.Name" or "importpath.Type.Method", with the
// reason it stays.
var apiAllowlist = map[string]string{
	"ickpt/ckpt.Emitter.Emit":           userAPI + ": the record step a custom driver calls",
	"ickpt/ckpt.Emitter.EmitIfModified": userAPI + ": the record step a custom driver calls",
	"ickpt/ckpt.Emitter.Reset":          userAPI + ": the record step a custom driver calls",
	"ickpt/ckpt.Rebuilder.MaxID":        testOracle + ": stablelog and tenant recovery tests",
	"ickpt/ckpt.RootIndex.Resolve":      userAPI + ": the standard InfoResolver",
	"ickpt/ckpt.Session.AbortAll":       userAPI + ": the custom sink's teardown (Session.Abort)",
	"ickpt/ckpt.ShadowCache.Len":        benchCaller,
	"ickpt/ckpt.ShadowCache.Stats":      benchCaller,
	"ickpt/ckpt.ShadowStats":            benchCaller,
	"ickpt/ckpt.Slab.Len":               userAPI + ": the arena's object count",
	"ickpt/ckpt.Tracker.Track":          userAPI + ": the incremental alternative to Watch",

	"ickpt/ckpt/parfold.Folder.FoldTo":  benchCaller,
	"ickpt/ckpt/parfold.Folder.Release": benchCaller,
	"ickpt/ckpt/parfold.NewGeneric":     benchCaller,
	"ickpt/ckpt/parfold.Sink":           benchCaller,

	"ickpt/ckpt/tenant.Manager":           benchCaller,
	"ickpt/ckpt/tenant.Manager.Flush":     benchCaller,
	"ickpt/ckpt/tenant.Manager.LogStats":  benchCaller,
	"ickpt/ckpt/tenant.Manager.Tenant":    benchCaller,
	"ickpt/ckpt/tenant.NewManager":        benchCaller,
	"ickpt/ckpt/tenant.Option":            benchCaller,
	"ickpt/ckpt/tenant.Recover":           benchCaller,
	"ickpt/ckpt/tenant.RecoveryRun":       benchCaller,
	"ickpt/ckpt/tenant.Stats":             benchCaller,
	"ickpt/ckpt/tenant.Tenant":            benchCaller,
	"ickpt/ckpt/tenant.Tenant.Init":       benchCaller,
	"ickpt/ckpt/tenant.Tenant.Request":    benchCaller,
	"ickpt/ckpt/tenant.Tenant.Session":    benchCaller,
	"ickpt/ckpt/tenant.Tenant.Stats":      benchCaller,
	"ickpt/ckpt/tenant.Tenant.Update":     benchCaller,
	"ickpt/ckpt/tenant.TenantIDs":         benchCaller,
	"ickpt/ckpt/tenant.WithSyncEvery":     benchCaller,
	"ickpt/ckpt/tenant.SplitEpoch":        testOracle + ": difftest's tenant sweep",
	"ickpt/ckpt/tenant.WireEpoch":         testOracle + ": stablelog, ckptinspect and difftest tests",
	"ickpt/ckpt/tenant.WithRetry":         testOracle + ": difftest's fault and tenant sweeps",
	"ickpt/ckpt/tenant.Tenant.ID":         userAPI + ": the tenant's stream id",
	"ickpt/ckpt/tenant.Tenant.TryRequest": userAPI + ": the shedding form of Request",
	"ickpt/ckpt/tenant.WithQueueLimit":    userAPI + ": the admission queue's bound",
	"ickpt/ckpt/tenant.WithWorkers":       userAPI + ": the fold pool size",

	"ickpt/ckptlint.Pass": userAPI + ": the argument of a custom Analyzer's Run",

	"ickpt/reflectckpt.Engine.Restore": userAPI + ": the reflective half of a Restore method",
	"ickpt/reflectckpt.SelfDescribed":  userAPI + ": the marker a self-recording type implements",

	"ickpt/spec.Contradictions":        testOracle + ": analysis's inference tests",
	"ickpt/spec.Guard.Checkpoint":      userAPI + ": the guarded plan's fold",
	"ickpt/spec.Guard.Degraded":        userAPI + ": whether the guard fell back to the generic fold",
	"ickpt/spec.Guard.Plan":            testOracle + ": parfold, synth and analysis tests",
	"ickpt/spec.Guard.Violation":       testOracle + ": analysis's inference tests",
	"ickpt/spec.Observer.ObserveDirty": testOracle + ": analysis's inference tests",
	"ickpt/spec.Plan.PatternName":      testOracle + ": analysis's inference tests",
	"ickpt/spec.Plan.Stats":            userAPI + ": what specialization removed",
	"ickpt/spec.PlanStats":             userAPI + ": what specialization removed",

	"ickpt/stablelog.EpochIndex.Chain":             userAPI + ": the replay chain of one epoch",
	"ickpt/stablelog.EpochUnavailableError.Unwrap": ifaceMethod + ": errors.Is and errors.As",
	"ickpt/stablelog.KeepLastRun":                  testOracle + ": tenant recovery and root integration tests",
	"ickpt/stablelog.Log.Path":                     testOracle + ": parfold tests",
	"ickpt/stablelog.Log.Sync":                     userAPI + ": the fsync of a log appended to directly",
	"ickpt/stablelog.WithQueueLimit":               benchCaller,
	"ickpt/stablelog.WithSyncInterval":             userAPI + ": group commit by time",

	"ickpt/wire.ApplyDelta":    testOracle + ": the replay oracle's delta step in ckpt's tests",
	"ickpt/wire.DeltaBaseHash": testOracle + ": the serial reference for DeltaBaseHash4",
}

// TestAPIAudit lists every exported func, type and method of a public
// package of this module (neither internal nor main) that no other
// package's non-test code references, and fails on one missing from
// apiAllowlist, or on an allowlist entry that is no longer flagged. It loads
// bench/ as well, only to hold each entry's reason to whether bench/ names it.
//
// Load type-checks each package separately, importing its dependencies from
// export data, so one declaration is a different types.Object in each
// importer: names are matched by package path plus name. A method counts as
// used if a caller names it or if its type implements an interface that
// declares it; a type counts as used if a caller names it, names one of its
// methods, or holds a value of it.
func TestAPIAudit(t *testing.T) {
	pkgs, err := ckptlint.Load("..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	benchPkgs, err := ckptlint.Load("../bench", "./...")
	if err != nil {
		t.Fatal(err)
	}
	used, ifaces := references(pkgs)
	benchUsed, _ := references(benchPkgs)
	testUsed, err := testReferences("..")
	if err != nil {
		t.Fatal(err)
	}

	flagged := make(map[string]bool)
	for _, p := range pkgs {
		if p.Types.Name() == "main" || strings.Contains(p.PkgPath+"/", "/internal/") {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			tn, isType := obj.(*types.TypeName)
			_, isFunc := obj.(*types.Func)
			if !isType && !isFunc {
				continue
			}
			if !used[objKey(obj)] {
				flagged[objKey(obj)] = true
			}
			if !isType {
				continue
			}
			mset := types.NewMethodSet(types.NewPointer(tn.Type()))
			for i := 0; i < mset.Len(); i++ {
				m := mset.At(i).Obj().(*types.Func)
				if !m.Exported() || m.Pkg() != p.Types || recvName(m) != tn.Name() {
					continue
				}
				if !used[objKey(m)] && !satisfiesIface(tn.Type(), m, ifaces) {
					flagged[objKey(m)] = true
				}
			}
		}
	}

	var names []string
	for k := range flagged {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		reason, ok := apiAllowlist[k]
		switch {
		case ok && !knownReason(reason):
			t.Errorf("%s: reason %q starts with none of %q, %q, %q, %q", k, reason, benchCaller, ifaceMethod, testOracle, userAPI)
		case !ok:
			t.Errorf("%s: exported, but no other package calls it: unexport or delete it, or allowlist it with a reason", k)
			continue
		case strings.HasPrefix(reason, benchCaller) && !benchUsed[k]:
			t.Errorf("%s: allowlisted as a bench/ caller, but bench/ never names it", k)
		case !strings.HasPrefix(reason, benchCaller) && benchUsed[k]:
			t.Errorf("%s: bench/ names it: give it the %q reason", k, benchCaller)
		case strings.HasPrefix(reason, testOracle) && !testUsed[k]:
			t.Errorf("%s: allowlisted as a test oracle, but no other package's tests name it", k)
		}
		t.Logf("%-48s %s", k, reason)
	}
	for k := range apiAllowlist {
		if !flagged[k] {
			t.Errorf("%s: allowlisted, but not flagged (renamed, deleted or now called): drop the entry", k)
		}
	}
}

// testReferences type-checks every test package of the module rooted at
// root — each package's test variant and its external _test package, as
// `go list -test` describes them — and returns the names their _test.go
// files reference in packages other than the one they test.
func testReferences(root string) (map[string]bool, error) {
	cmd := exec.Command("go", "list", "-e", "-test", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,ImportMap,ForTest,DepOnly,Error", "./...")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -test: %w", err)
	}
	type listed struct {
		ImportPath, Dir, Export, ForTest string
		GoFiles                          []string
		ImportMap                        map[string]string
		DepOnly                          bool
		Error                            *struct{ Err string }
	}
	exports := make(map[string]string)
	var tests []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var lp listed
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("%s: %s", lp.ImportPath, lp.Error.Err)
		}
		exports[lp.ImportPath] = lp.Export
		if !lp.DepOnly && lp.ForTest != "" {
			tests = append(tests, lp)
		}
	}

	used := make(map[string]bool)
	fset := token.NewFileSet()
	for _, lp := range tests {
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		lookup := func(path string) (io.ReadCloser, error) {
			if m, ok := lp.ImportMap[path]; ok {
				path = m
			}
			return os.Open(exports[path])
		}
		info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
		conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
		if _, err := conf.Check(lp.ImportPath, fset, files, info); err != nil {
			return nil, fmt.Errorf("type checking %s: %w", lp.ImportPath, err)
		}
		for id, obj := range info.Uses {
			if obj.Pkg() != nil && obj.Pkg().Path() != lp.ForTest &&
				strings.HasSuffix(fset.File(id.Pos()).Name(), "_test.go") {
				used[objKey(obj)] = true
			}
		}
	}
	return used, nil
}

// knownReason reports whether reason starts with one of the four reasons.
func knownReason(reason string) bool {
	for _, r := range []string{benchCaller, ifaceMethod, testOracle, userAPI} {
		if strings.HasPrefix(reason, r) {
			return true
		}
	}
	return false
}

// references returns the names pkgs' code references in packages other than
// its own, and every interface type it declares, uses or imports.
func references(pkgs []*ckptlint.Package) (map[string]bool, []*types.Interface) {
	used := make(map[string]bool)
	var ifaces []*types.Interface
	seen := make(map[*types.Package]bool)
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			if obj.Pkg() != nil && obj.Pkg().Path() != p.PkgPath {
				used[objKey(obj)] = true
			}
		}
		for _, tv := range p.Info.Types {
			markTypes(tv.Type, p.PkgPath, used, make(map[types.Type]bool))
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
		ifaces = append(ifaces, scopeInterfaces(p.Types, seen)...)
	}
	return used, ifaces
}

// objKey names obj by package path plus name, with the receiver's type name
// between them for a method.
func objKey(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		if r := recvName(f); r != "" {
			return obj.Pkg().Path() + "." + r + "." + obj.Name()
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recvName is the name of a method's receiver type, "" for a plain func or
// an interface method.
func recvName(f *types.Func) string {
	sig := f.Type().(*types.Signature)
	if sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// markTypes marks as used every named type of another package that a value
// of type t holds or passes: through pointers, containers and signatures.
func markTypes(t types.Type, from string, used map[string]bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		if obj := t.Obj(); obj.Pkg() != nil && obj.Pkg().Path() != from {
			used[objKey(obj)] = true
		}
		if ta := t.TypeArgs(); ta != nil {
			for i := 0; i < ta.Len(); i++ {
				markTypes(ta.At(i), from, used, seen)
			}
		}
	case *types.Pointer:
		markTypes(t.Elem(), from, used, seen)
	case *types.Slice:
		markTypes(t.Elem(), from, used, seen)
	case *types.Array:
		markTypes(t.Elem(), from, used, seen)
	case *types.Chan:
		markTypes(t.Elem(), from, used, seen)
	case *types.Map:
		markTypes(t.Key(), from, used, seen)
		markTypes(t.Elem(), from, used, seen)
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				markTypes(tup.At(i).Type(), from, used, seen)
			}
		}
	}
}

// scopeInterfaces returns the interface types declared at package scope in
// pkg and, transitively, in everything it imports.
func scopeInterfaces(pkg *types.Package, seen map[*types.Package]bool) []*types.Interface {
	if seen[pkg] {
		return nil
	}
	seen[pkg] = true
	var out []*types.Interface
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				out = append(out, it)
			}
		}
	}
	for _, imp := range pkg.Imports() {
		out = append(out, scopeInterfaces(imp, seen)...)
	}
	return out
}

// satisfiesIface reports whether t or *t implements an interface that
// declares m. Implementation is checked by method name and signature text,
// not types.Implements: an interface from a package that imports t's
// package sees t through export data, as a different type.
func satisfiesIface(t types.Type, m *types.Func, ifaces []*types.Interface) bool {
	have := make(map[string]string)
	mset := types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < mset.Len(); i++ {
		f := mset.At(i).Obj()
		have[f.Name()] = sigText(f.Type())
	}
	for _, it := range ifaces {
		declares, all := false, it.NumMethods() > 0
		for i := 0; i < it.NumMethods() && all; i++ {
			im := it.Method(i)
			all = have[im.Name()] == sigText(im.Type())
			declares = declares || im.Name() == m.Name()
		}
		if declares && all {
			return true
		}
	}
	return false
}

// sigText renders a signature with packages qualified by full path, so two
// type-checks of one declaration render alike.
func sigText(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Path() })
}
