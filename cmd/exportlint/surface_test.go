package main

// The surface ratchet: every exported name in a module's internal/ packages
// needs a consumer — non-test code of another package of the module, bench/
// included — or a line in testdata/surface.txt that says why it stays. A name
// that only its own package or only tests use is unexported, deleted or moved
// into the tests; the list names the rest (sentinel errors, test oracles) and
// may not grow without editing surfaceEntries.

import (
	"bufio"
	"fmt"
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

// surfaceEntries is the number of lines of testdata/surface.txt. A new entry
// is a deliberate edit here, not a line appended to a data file.
const surfaceEntries = 11

// exemptMethods are called by the standard library through an interface, not
// by a selector in the module.
var exemptMethods = map[string]bool{"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true}

type surfacePkg struct {
	path  string
	files []*ast.File
}

// unusedSurface returns the exported names of root's internal/ packages that
// no other package's non-test code references, each mapped to its position.
// Top-level names are "importpath.Name", methods "importpath.Type.Method".
func unusedSurface(root string) (map[string]string, error) {
	modBytes, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var modPath string
	for _, line := range strings.Split(string(modBytes), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("%s/go.mod: no module line", root)
	}

	fset := token.NewFileSet()
	pkgs := map[string]*surfacePkg{} // by directory
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		p := pkgs[dir]
		if p == nil {
			rel, err := filepath.Rel(root, dir)
			if err != nil {
				return err
			}
			p = &surfacePkg{path: modPath}
			if rel != "." {
				p.path += "/" + filepath.ToSlash(rel)
			}
			pkgs[dir] = p
		}
		p.files = append(p.files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	pkgName := map[string]string{} // import path → package name
	for _, p := range pkgs {
		pkgName[p.path] = p.files[0].Name.Name
	}
	used := map[string]bool{}          // "importpath.Name" referenced from another package
	selectors := map[string][]string{} // selector name → packages that use it on a value
	for _, p := range pkgs {
		seen := map[string]bool{}
		for _, f := range p.files {
			imports := map[string]string{} // local name → import path
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				local := pkgName[path]
				if local == "" {
					local = path[strings.LastIndex(path, "/")+1:]
				}
				if imp.Name != nil {
					local = imp.Name.Name
				}
				imports[local] = path
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[imports[x.Name]+"."+sel.Sel.Name] = true
				} else if !seen[sel.Sel.Name] {
					seen[sel.Sel.Name] = true
					selectors[sel.Sel.Name] = append(selectors[sel.Sel.Name], p.path)
				}
				return true
			})
		}
	}
	calledElsewhere := func(method, pkg string) bool {
		for _, q := range selectors[method] {
			if q != pkg {
				return true
			}
		}
		return false
	}

	unused := map[string]string{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.path, modPath+"/internal/") {
			continue
		}
		inSignature := exportedTypeUses(p.files)
		flag := func(name string, pos token.Pos) {
			unused[p.path+"."+name] = fset.Position(pos).String()
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					if d.Recv == nil {
						if !used[p.path+"."+d.Name.Name] {
							flag(d.Name.Name, d.Pos())
						}
						continue
					}
					recv := receiverName(d)
					if ast.IsExported(recv) && !exemptMethods[d.Name.Name] && !calledElsewhere(d.Name.Name, p.path) {
						flag(recv+"."+d.Name.Name, d.Pos())
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && !used[p.path+"."+s.Name.Name] && !inSignature[s.Name.Name] {
								flag(s.Name.Name, s.Pos())
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() && !used[p.path+"."+n.Name] {
									flag(n.Name, n.Pos())
								}
							}
						}
					}
				}
			}
		}
	}
	return unused, nil
}

// receiverName is the name of a method's receiver type.
func receiverName(d *ast.FuncDecl) string {
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// exportedTypeUses collects the identifiers that appear in the package's
// exported surface: the signatures of its exported functions and of the
// exported methods of its exported types, and the exported fields and
// interface methods of its exported types. A type named there is reachable
// through that surface even when no other package spells its name.
func exportedTypeUses(files []*ast.File) map[string]bool {
	uses := map[string]bool{}
	collect := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name] = true
			}
			return true
		})
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && (d.Recv == nil || ast.IsExported(receiverName(d))) {
					collect(d.Type)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					s, ok := spec.(*ast.TypeSpec)
					if !ok || !s.Name.IsExported() {
						continue
					}
					var fields *ast.FieldList
					switch t := s.Type.(type) {
					case *ast.StructType:
						fields = t.Fields
					case *ast.InterfaceType:
						fields = t.Methods
					default:
						collect(s.Type)
					}
					if fields == nil {
						continue
					}
					for _, fld := range fields.List {
						exported := len(fld.Names) == 0 // embedded
						for _, n := range fld.Names {
							exported = exported || n.IsExported()
						}
						if exported {
							collect(fld.Type)
						}
					}
				}
			}
		}
	}
	return uses
}

// readSurfaceList parses an allowlist: one "importpath.Name  reason" a line.
func readSurfaceList(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	list := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		name, reason, _ := strings.Cut(strings.TrimSpace(sc.Text()), " ")
		reason = strings.TrimSpace(reason)
		if name == "" || reason == "" {
			return nil, fmt.Errorf("%s:%d: want \"importpath.Name  reason\"", path, line)
		}
		if _, dup := list[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, line, name)
		}
		list[name] = reason
	}
	return list, sc.Err()
}

// surfaceProblems holds the scan of root to the allowlist: an unused name the
// list does not name, and a listed name that is not unused any more.
func surfaceProblems(root string, list map[string]string) ([]string, error) {
	unused, err := unusedSurface(root)
	if err != nil {
		return nil, err
	}
	var problems []string
	for name, pos := range unused {
		if _, ok := list[name]; !ok {
			problems = append(problems, fmt.Sprintf("%s: exported %s has no non-test use outside its package: unexport it, delete it, move it into the tests that use it, or list it with a reason", pos, name))
		}
	}
	for name := range list {
		if _, ok := unused[name]; !ok {
			problems = append(problems, fmt.Sprintf("stale surface entry %s: it is used (or gone) now; delete its line", name))
		}
	}
	sort.Strings(problems)
	return problems, nil
}

func TestSurface(t *testing.T) {
	list, err := readSurfaceList("testdata/surface.txt")
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != surfaceEntries {
		t.Errorf("testdata/surface.txt has %d entries, want %d: the list grows only by editing surfaceEntries", len(list), surfaceEntries)
	}
	problems, err := surfaceProblems("../..", list)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestSurfaceFixture runs the scan over testdata/fixture, a module whose
// internal/lib exports a function cmd/app calls (Used), a function nothing
// else calls (Unused), a type only its own package names (Hidden) but that an
// exported signature returns, and a method only lib itself calls (T.Own).
func TestSurfaceFixture(t *testing.T) {
	for _, tc := range []struct {
		name string
		list map[string]string
		want []string
	}{
		{"unlisted", nil, []string{"lib.T.Own has no", "lib.Unused has no"}},
		{"listed", map[string]string{"fix/internal/lib.Unused": "r", "fix/internal/lib.T.Own": "r"}, nil},
		{"stale", map[string]string{"fix/internal/lib.Unused": "r", "fix/internal/lib.T.Own": "r", "fix/internal/lib.Used": "r"},
			[]string{"stale surface entry fix/internal/lib.Used"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := surfaceProblems("testdata/fixture", tc.list)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("problems %q, want one each matching %q", got, tc.want)
			}
			for _, w := range tc.want {
				found := false
				for _, p := range got {
					found = found || strings.Contains(p, w)
				}
				if !found {
					t.Errorf("no problem in %q contains %q", got, w)
				}
			}
		})
	}
}
