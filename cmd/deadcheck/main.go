// Command deadcheck is the reachability gate: every exported name in
// the module's internal/ packages must be used by a non-test file, so
// code that only tests reach cannot sit in production packages.
//
// Usage (from the module root; deadcheck takes no flags):
//
//	deadcheck
//
// It lists the packages of the module in the current directory, and of
// the separate bench/ module when bench/go.mod exists, with
// `go list -deps`, and type-checks each package once from its non-test
// files. An exported function, method, type, var, const or struct
// field declared in internal/ fails the check unless a non-test file of
// either module uses it. A method also counts as used when it
// implements a method of an interface, since dispatch through the
// interface calls it; an embedded field counts as used. Uses from
// internal/oracle, the test-support package that holds the reference
// implementations tests compare against, do not count, and a non-test
// import of internal/oracle fails the check. Each diagnostic is printed
// vet-style as "file:line: ..." and the exit status is 1 if any was.
//
// ci/deadcheck_allow.txt, if present, lists names that may stay unused,
// one per line as "<name> <reason>", where <name> is the
// module-relative package path joined by dots to the object, its
// receiver or struct type first (internal/stats.MeanCI.Contains). Blank
// lines and lines starting with # are skipped. A line without a reason,
// or naming no unused object, fails the check.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// allowFile is the allowlist's path relative to the module root.
const allowFile = "ci/deadcheck_allow.txt"

func main() {
	ok, err := check(".", os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcheck:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// listedPkg is the part of `go list -json` output the check reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	ImportMap  map[string]string
	Standard   bool
	Module     *struct {
		Path string
		Main bool
	}
	Error *struct{ Err string }
}

// check runs the gate on the module rooted at root and writes one line
// per finding to out. It reports whether the check passed; err is set
// only when the packages cannot be listed or type-checked.
func check(root string, out io.Writer) (bool, error) {
	pkgs, mainPath, err := listPackages(root)
	if err != nil {
		return false, err
	}
	allow, findings, err := readAllowlist(filepath.Join(root, allowFile))
	if err != nil {
		return false, err
	}
	internal := mainPath + "/internal/"
	oracle := mainPath + "/internal/oracle"

	fset := token.NewFileSet()
	checked := make(map[string]*types.Package, len(pkgs))
	used := make(map[types.Object]bool)
	var ifaces []*types.Interface
	var candidates []candidate
	for _, p := range pkgs {
		module := !p.Standard
		info := &types.Info{}
		if module {
			info.Uses = make(map[*ast.Ident]types.Object)
			info.Types = make(map[ast.Expr]types.TypeAndValue)
		}
		tp, files, err := typeCheck(fset, p, checked, info)
		if err != nil {
			return false, err
		}
		checked[p.ImportPath] = tp
		ifaces = appendInterfaces(ifaces, tp, info)
		if !module {
			continue
		}
		if p.ImportPath != oracle {
			for _, obj := range info.Uses {
				used[origin(obj)] = true
			}
			for _, f := range files {
				for _, imp := range f.Imports {
					if strings.Trim(imp.Path.Value, `"`) == oracle {
						pos := fset.Position(imp.Pos())
						findings = append(findings, fmt.Sprintf("%s:%d: non-test import of %s, which only tests may import",
							relPath(root, pos.Filename), pos.Line, strings.TrimPrefix(oracle, mainPath+"/")))
					}
				}
			}
		}
		if strings.HasPrefix(p.ImportPath+"/", internal) && p.ImportPath != oracle {
			candidates = appendExported(candidates, tp, strings.TrimPrefix(p.ImportPath, mainPath+"/"))
		}
	}

	for _, c := range candidates {
		if used[c.obj] || implementsInterface(c.obj, ifaces) {
			continue
		}
		if _, ok := allow[c.name]; ok {
			delete(allow, c.name)
			continue
		}
		pos := fset.Position(c.obj.Pos())
		findings = append(findings, fmt.Sprintf("%s:%d: exported %s %s is used by no non-test file",
			relPath(root, pos.Filename), pos.Line, c.kind, c.name))
	}
	for name, line := range allow {
		findings = append(findings, fmt.Sprintf("%s:%d: allowlisted %s is not an unused exported name; remove its line",
			allowFile, line, name))
	}
	sort.Strings(findings)
	for _, f := range findings {
		fmt.Fprintln(out, f)
	}
	return len(findings) == 0, nil
}

// listPackages lists the packages of the module at root and, when it
// has one, of the bench/ module, every dependency before the packages
// that import it. It returns them with the main module's path.
func listPackages(root string) ([]*listedPkg, string, error) {
	dirs := []string{root}
	if _, err := os.Stat(filepath.Join(root, "bench", "go.mod")); err == nil {
		dirs = append(dirs, filepath.Join(root, "bench"))
	}
	var pkgs []*listedPkg
	seen := make(map[string]bool)
	mainPath := ""
	for i, dir := range dirs {
		cmd := exec.Command("go", "list", "-deps", "-json", "./...")
		cmd.Dir = dir
		// Without cgo every package lists the pure-Go files that
		// type-check from source alone.
		cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		raw, err := cmd.Output()
		if err != nil {
			return nil, "", fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		for {
			p := new(listedPkg)
			if err := dec.Decode(p); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				return nil, "", fmt.Errorf("go list in %s: %v", dir, err)
			}
			if p.Error != nil {
				return nil, "", fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
			}
			if i == 0 && p.Module != nil && p.Module.Main {
				mainPath = p.Module.Path
			}
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	if mainPath == "" {
		return nil, "", fmt.Errorf("no main-module package under %s", root)
	}
	return pkgs, mainPath, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// typeCheck parses and type-checks one listed package against the
// packages checked before it, and returns it with its parsed files.
// Standard-library packages skip function bodies and tolerate errors:
// only their declarations are needed.
func typeCheck(fset *token.FileSet, p *listedPkg, checked map[string]*types.Package, info *types.Info) (*types.Package, []*ast.File, error) {
	if p.ImportPath == "unsafe" {
		return types.Unsafe, nil, nil
	}
	files := make([]*ast.File, 0, len(p.GoFiles))
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	var errs []error
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if mapped, ok := p.ImportMap[path]; ok {
				path = mapped
			}
			if tp := checked[path]; tp != nil {
				return tp, nil
			}
			return nil, fmt.Errorf("package %s not listed before %s", path, p.ImportPath)
		}),
		Sizes:            types.SizesFor("gc", runtime.GOARCH),
		IgnoreFuncBodies: p.Standard,
		Error:            func(err error) { errs = append(errs, err) },
	}
	tp, _ := conf.Check(p.ImportPath, fset, files, info)
	if len(errs) > 0 && !p.Standard {
		return nil, nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, errors.Join(errs...))
	}
	return tp, files, nil
}

// appendInterfaces appends the package's named interfaces and, where
// info records expression types, its interface literals (such as an
// inline type-parameter constraint).
func appendInterfaces(ifaces []*types.Interface, tp *types.Package, info *types.Info) []*types.Interface {
	scope := tp.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	for _, tv := range info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	return ifaces
}

// candidate is an exported object that needs a use, with its allowlist
// name and the kind its diagnostic gives.
type candidate struct {
	obj        types.Object
	name, kind string
}

// appendExported appends the package's exported package-level objects,
// the exported methods of its named types and the exported, non-embedded
// fields of its struct types. Each is named after rel, the package's
// path in the module.
func appendExported(cs []candidate, tp *types.Package, rel string) []candidate {
	scope := tp.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			cs = append(cs, candidate{obj, rel + "." + name, objKind(obj)})
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		member := func(m types.Object, kind string) {
			if m.Exported() {
				cs = append(cs, candidate{m, rel + "." + name + "." + m.Name(), kind})
			}
		}
		named := tn.Type().(*types.Named)
		for i := 0; i < named.NumMethods(); i++ {
			member(named.Method(i), "method")
		}
		switch u := named.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i); !f.Embedded() {
					member(f, "field")
				}
			}
		case *types.Interface:
			for i := 0; i < u.NumExplicitMethods(); i++ {
				member(u.ExplicitMethod(i), "method")
			}
		}
	}
	return cs
}

// objKind names a package-level object's sort for a diagnostic.
func objKind(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		return "function"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}

// origin maps a use of an instantiated generic method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// implementsInterface reports whether obj is a method of a concrete
// type that implements, or satisfies as a constraint, an interface
// with a method of the same name.
func implementsInterface(obj types.Object, ifaces []*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Signature().Recv()
	if recv == nil || types.IsInterface(recv.Type()) {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	for _, it := range ifaces {
		if !hasMethod(it, fn.Name()) {
			continue
		}
		for _, v := range []types.Type{t, types.NewPointer(t)} {
			if it.IsMethodSet() && types.Implements(v, it) || !it.IsMethodSet() && types.Satisfies(v, it) {
				return true
			}
		}
	}
	return false
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// relPath shows a file relative to the module root when it lies inside.
func relPath(root, file string) string {
	abs, err := filepath.Abs(root)
	if err != nil {
		return file
	}
	if rel, err := filepath.Rel(abs, file); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return file
}

// readAllowlist reads the allowlist, mapping each name to its line. A
// missing file is an empty list; a line without a reason is a finding.
func readAllowlist(path string) (map[string]int, []string, error) {
	allow := make(map[string]int)
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return allow, nil, nil
	} else if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var findings []string
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, reason, _ := strings.Cut(text, " ")
		if strings.TrimSpace(reason) == "" {
			findings = append(findings, fmt.Sprintf("%s:%d: allowlisted %s gives no reason", allowFile, line, name))
		}
		allow[name] = line
	}
	return allow, findings, sc.Err()
}
