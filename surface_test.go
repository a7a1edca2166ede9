package mobipriv_test

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// surfaceAllowlist names the exported internal functions and methods
// that stay although no non-test file calls them by name, each with
// its reason. Keys are "pkg.Func" or "pkg.Type.Method".
var surfaceAllowlist = map[string]string{
	"trace.Trace.Speeds":      "kept for the planned pace detector's property test on batch Promesse output",
	"trace.Trace.SplitByGap":  "kept for the planned event-time trace boundaries in the stream engine",
	"router.NodeError.Unwrap": "called by errors.Unwrap, errors.Is and errors.As, never by name",
}

// surfaceExempt lists the internal packages whose API exists for tests
// only, so the guard does not apply to them.
var surfaceExempt = []string{"internal/serve/servetest", "internal/store/storetest"}

// TestNoUnreferencedInternalAPI keeps dead internal API deleted: every
// exported function, and every exported method of an exported type,
// declared in internal/ must be named by some non-test file of the root
// module or bench/, or be on surfaceAllowlist. A test-only caller does
// not count, because a helper only tests use belongs in a _test.go
// file.
func TestNoUnreferencedInternalAPI(t *testing.T) {
	var defs, refs []surfaceFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		refs = append(refs, surfaceFile{path, f})
		if strings.HasPrefix(path, "internal/") && !strings.HasSuffix(path, "_test.go") && !surfaceIsExempt(path) {
			defs = append(defs, surfaceFile{path, f})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) == 0 {
		t.Fatal("no internal/ files found; run from the repository root")
	}
	for _, name := range unreferencedAPI(defs, refs, surfaceAllowlist) {
		t.Errorf("%s is exported but no non-test file references it: delete it, or move it into the _test.go file that uses it", name)
	}
}

func surfaceIsExempt(path string) bool {
	for _, dir := range surfaceExempt {
		if strings.HasPrefix(path, dir+"/") {
			return true
		}
	}
	return false
}

// surfaceFile is one parsed Go file with its slash-separated path.
type surfaceFile struct {
	path string
	file *ast.File
}

// unreferencedAPI returns, sorted, the "pkg.Func" or "pkg.Type.Method"
// key of every exported function, and every exported method of an
// exported type, declared in defs whose name appears as an identifier
// in no non-test file of refs (its own declaration aside) and that
// allow does not list. The match is by name, so it errs towards
// keeping: a method counts as referenced when any interface or call in
// the tree names it.
func unreferencedAPI(defs, refs []surfaceFile, allow map[string]string) []string {
	used := make(map[string]bool)
	for _, sf := range refs {
		if strings.HasSuffix(sf.path, "_test.go") {
			continue
		}
		declared := make(map[*ast.Ident]bool)
		for _, d := range sf.file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				declared[fd.Name] = true
			}
		}
		ast.Inspect(sf.file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
	}
	var out []string
	for _, sf := range defs {
		for _, d := range sf.file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || used[fd.Name.Name] {
				continue
			}
			key := sf.file.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil {
				// Methods of an unexported type are reachable only
				// through an interface, which may live outside the tree.
				recv := recvTypeName(fd.Recv.List[0].Type)
				if !ast.IsExported(recv) {
					continue
				}
				key = sf.file.Name.Name + "." + recv + "." + fd.Name.Name
			}
			if _, ok := allow[key]; !ok {
				out = append(out, key)
			}
		}
	}
	sort.Strings(out)
	return out
}

// addMembers records the exported fields of a struct type and the
// methods of an interface type as "Type.Name".
func addMembers(s *ast.TypeSpec, add func(kind, name string)) {
	var list *ast.FieldList
	kind := "field"
	switch x := s.Type.(type) {
	case *ast.StructType:
		list = x.Fields
	case *ast.InterfaceType:
		list, kind = x.Methods, "method"
	default:
		return
	}
	for _, fld := range list.List {
		names := fld.Names
		if len(names) == 0 { // embedded
			if kind == "method" {
				continue // embedded constraint or interface
			}
			names = []*ast.Ident{{Name: recvTypeName(fld.Type)}}
		}
		for _, n := range names {
			if ast.IsExported(n.Name) {
				add(kind, s.Name.Name+"."+n.Name)
			}
		}
	}
}

// recvTypeName strips pointers and type parameters from a receiver.
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// TestNoUnreferencedInternalAPIFixtures pins the guard's rules on small
// sources: it must report an unreferenced exported function or method,
// and must not report a referenced one, an allowlisted one, a method of
// an unexported type, or count a _test.go caller.
func TestNoUnreferencedInternalAPIFixtures(t *testing.T) {
	const lib = `package lib
func Used() {}
func Unused() {}
func Allowed() {}
func TestOnly() {}
func unexported() {}
type T struct{}
func (T) Method() {}
func (*T) Dead() {}
type u struct{}
func (u) Less() bool { return false }
`
	const caller = `package main
import "lib"
func main() { lib.Used(); var t lib.T; t.Method() }
`
	const test = `package lib
func helper() { TestOnly(); Unused() }
`
	fset := token.NewFileSet()
	parse := func(path, src string) surfaceFile {
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return surfaceFile{path, f}
	}
	libFile := parse("internal/lib/lib.go", lib)
	defs := []surfaceFile{libFile}
	refs := []surfaceFile{libFile, parse("cmd/main.go", caller), parse("internal/lib/lib_test.go", test)}
	got := strings.Join(unreferencedAPI(defs, refs, map[string]string{"lib.Allowed": "fixture"}), " ")
	if want := "lib.T.Dead lib.TestOnly lib.Unused"; got != want {
		t.Errorf("unreferencedAPI = %q, want %q", got, want)
	}
}

// TestAPIGolden pins the exported API of package mobipriv in
// testdata/api.txt, one sorted line per exported identifier, so that
// every addition or removal shows up as a reviewed diff line.
// Regenerate with: go test -run TestAPIGolden -args -update
func TestAPIGolden(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["mobipriv"]
	if !ok {
		t.Fatal("package mobipriv not found")
	}
	var lines []string
	add := func(kind, name string) {
		if ast.IsExported(name) {
			lines = append(lines, kind+" "+name)
		}
	}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add("func", d.Name.Name)
				} else if recv := recvTypeName(d.Recv.List[0].Type); ast.IsExported(recv) {
					add("method", recv+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add("type", s.Name.Name)
						if ast.IsExported(s.Name.Name) {
							addMembers(s, add)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(d.Tok.String(), n.Name)
						}
					}
				}
			}
		}
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join("testdata", "api.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test -run TestAPIGolden -args -update)", err)
	}
	if got != string(want) {
		t.Errorf("exported API of package mobipriv differs from %s (regenerate with -update if intended):\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}
