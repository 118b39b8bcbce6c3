package main

// The doc-comment rule: every exported top-level declaration of a package
// under internal/ — func, type, const, var, and a method of an exported type
// — has a doc comment, and a func's or type's starts with its name (the Go
// doc convention). The contracts — what a simulator reuses and what it
// re-derives, the passes' options, who owns a schedule's lists, the generator
// registry, the planning service's surface — live in the source, and a new
// package is held to this from its first commit.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// undocumented returns one "file:line: ..." message for every exported
// top-level declaration without a fitting doc comment in the non-test Go
// files under dir; testdata and dot directories are skipped.
func undocumented(dir string) ([]string, error) {
	fset := token.NewFileSet()
	var problems []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != dir && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		report := func(pos token.Pos, what, name string) {
			problems = append(problems, fset.Position(pos).String()+": exported "+what+" "+name+" has no doc comment starting with "+name)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && (d.Recv == nil || ast.IsExported(receiverName(d))) && !docOK(d.Doc, d.Name.Name) {
					report(d.Pos(), "function", d.Name.Name)
				}
			case *ast.GenDecl:
				lintGenDecl(report, d)
			}
		}
		return nil
	})
	return problems, err
}

// lintGenDecl handles type/const/var blocks. A type spec needs its own doc
// comment or a group comment naming it; a const or var is covered by any
// comment on it or on its group.
func lintGenDecl(report func(token.Pos, string, string), d *ast.GenDecl) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && !docOK(s.Doc, s.Name.Name) && !docOK(d.Doc, s.Name.Name) {
				report(s.Pos(), "type", s.Name.Name)
			}
		case *ast.ValueSpec:
			if s.Doc.Text() != "" || s.Comment.Text() != "" || d.Doc.Text() != "" {
				continue
			}
			for _, n := range s.Names {
				if n.IsExported() {
					report(n.Pos(), d.Tok.String(), n.Name)
				}
			}
		}
	}
}

// docOK reports whether the comment begins with the identifier's name, bare
// or after an article or a deprecation marker.
func docOK(doc *ast.CommentGroup, name string) bool {
	text := strings.TrimSpace(doc.Text())
	for _, prefix := range []string{"", "A ", "An ", "The ", "Deprecated: "} {
		if strings.HasPrefix(text, prefix+name) {
			return true
		}
	}
	return false
}

func TestDocComments(t *testing.T) {
	problems, err := undocumented(filepath.Join("..", "..", "internal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestDocCommentsFixture runs the rule over testdata/fixture, whose one
// undocumented export is the method T.String of internal/lib.
func TestDocCommentsFixture(t *testing.T) {
	problems, err := undocumented("testdata/fixture")
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "lib.go:") || !strings.Contains(problems[0], "function String ") {
		t.Errorf("problems %q, want the one undocumented T.String in lib.go", problems)
	}
}
