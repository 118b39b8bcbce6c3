// Command exportlint enforces doc comments on exported identifiers — a
// dependency-free stand-in for `revive`'s exported rule, scoped to the
// packages whose invariants must live in the source rather than in commit
// messages (internal/sim's engine contract, internal/pipeline's ownership
// rules).
//
// Usage:
//
//	exportlint ./internal/sim ./internal/pipeline
//
// For every exported top-level declaration (func, type, const, var, method
// with an exported receiver) in the named package directories, a leading doc
// comment is required and must start with the identifier's name (the standard
// Go doc convention). Test files are skipped. Violations are printed as
// file:line: messages and the exit status is 1.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: exportlint <package-dir> [package-dir...]")
		os.Exit(2)
	}
	bad := 0
	for _, dir := range os.Args[1:] {
		dir = strings.TrimPrefix(dir, "./")
		n, err := lintDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "exportlint: %v\n", err)
			os.Exit(2)
		}
		bad += n
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "exportlint: %d exported identifiers lack doc comments\n", bad)
		os.Exit(1)
	}
}

// lintDir parses every non-test Go file in dir and reports undocumented
// exported declarations.
func lintDir(dir string) (int, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return 0, err
	}
	bad := 0
	for _, pkg := range pkgs {
		// Deterministic file order for stable output.
		var files []string
		for name := range pkg.Files {
			files = append(files, name)
		}
		sortStrings(files)
		for _, name := range files {
			bad += lintFile(fset, pkg.Files[name])
		}
	}
	return bad, nil
}

// lintFile walks one file's top-level declarations.
func lintFile(fset *token.FileSet, f *ast.File) int {
	bad := 0
	report := func(pos token.Pos, what, name string) {
		fmt.Printf("%s: exported %s %s has no doc comment starting with %q\n",
			fset.Position(pos), what, name, name)
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || unexportedReceiver(d) {
				continue
			}
			if !docOK(d.Doc, d.Name.Name) {
				report(d.Pos(), "function", d.Name.Name)
				bad++
			}
		case *ast.GenDecl:
			bad += lintGenDecl(report, d)
		}
	}
	return bad
}

// lintGenDecl handles type/const/var blocks. A doc comment on the grouped
// declaration covers its specs (the convention for const/var blocks); a type
// spec inside a group still needs its own comment unless the group documents
// it.
func lintGenDecl(report func(token.Pos, string, string), d *ast.GenDecl) int {
	bad := 0
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			if docOK(s.Doc, s.Name.Name) || docOK(d.Doc, s.Name.Name) {
				continue
			}
			report(s.Pos(), "type", s.Name.Name)
			bad++
		case *ast.ValueSpec:
			for _, n := range s.Names {
				if !n.IsExported() {
					continue
				}
				// A const/var group's doc comment documents all members;
				// per-spec comments also count, with any leading word.
				if s.Doc.Text() != "" || s.Comment.Text() != "" || d.Doc.Text() != "" {
					continue
				}
				report(n.Pos(), d.Tok.String(), n.Name)
				bad++
			}
		}
	}
	return bad
}

// unexportedReceiver reports whether a method hangs off an unexported type —
// such methods are not part of the package's exported API surface.
func unexportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return false
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return !x.IsExported()
		default:
			return false
		}
	}
}

// docOK reports whether the comment exists and begins with the identifier
// name (allowing the "A Foo ..."/"The Foo ..." article forms gofmt accepts).
func docOK(doc *ast.CommentGroup, name string) bool {
	text := strings.TrimSpace(doc.Text())
	if text == "" {
		return false
	}
	for _, prefix := range []string{"", "A ", "An ", "The ", "Deprecated: "} {
		if strings.HasPrefix(text, prefix+name) {
			return true
		}
	}
	return false
}

// sortStrings is an allocation-free insertion sort (avoids importing sort for
// one call site — keeps the tool trivially auditable).
func sortStrings(a []string) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
