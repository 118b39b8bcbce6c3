package experiments

// Two checks that hold the prose docs to the checkout, beside
// TestDocsCiteRealTests: every relative link and heading anchor resolves, and
// docs/TUNING.md names every flag of the operator commands and no flag that
// is gone.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// linkRE matches inline links and images: [text](target) / ![alt](target).
var linkRE = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// refRE matches reference-style definitions: [label]: target
var refRE = regexp.MustCompile(`^\s*\[[^\]]+\]:\s+(\S+)`)

// TestDocLinks: every relative link, image and reference definition outside
// code fences in README.md, DESIGN.md, EXPERIMENTS.md, ROADMAP.md, PAPER.md
// and docs/ names a file that exists, and its #fragment a heading of the
// target markdown file by GitHub's anchor-slug rules (#frag alone names a
// heading of the same file). External links are not fetched.
func TestDocLinks(t *testing.T) {
	root := filepath.Join("..", "..")
	var files []string
	for _, name := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md", "PAPER.md"} {
		files = append(files, filepath.Join(root, name))
	}
	err := filepath.WalkDir(filepath.Join(root, "docs"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".md") {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	anchors := map[string]map[string]bool{} // markdown file → its heading slugs
	anchorsOf := func(path string) map[string]bool {
		if a, ok := anchors[path]; ok {
			return a
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		a := headingAnchors(string(data))
		anchors[path] = a
		return a
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		inFence := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			if inFence {
				continue
			}
			var targets []string
			for _, m := range linkRE.FindAllStringSubmatch(line, -1) {
				targets = append(targets, m[1])
			}
			if m := refRE.FindStringSubmatch(line); m != nil {
				targets = append(targets, m[1])
			}
			for _, tgt := range targets {
				if external(tgt) {
					continue
				}
				file, frag, _ := strings.Cut(tgt, "#")
				resolved := path // a fragment alone points into this file
				if file != "" {
					resolved = filepath.Join(filepath.Dir(path), file)
					if _, err := os.Stat(resolved); err != nil {
						t.Errorf("%s:%d: dangling link target %q", path, i+1, file)
						continue
					}
				}
				if frag != "" && strings.HasSuffix(resolved, ".md") && !anchorsOf(resolved)[strings.ToLower(frag)] {
					t.Errorf("%s:%d: no heading for anchor %q in %s", path, i+1, frag, resolved)
				}
			}
		}
	}
}

// headingAnchors returns the GitHub-style slugs of a markdown document's
// headings outside code fences, a repeated slug taking the -1, -2, …
// suffixes.
func headingAnchors(doc string) map[string]bool {
	anchors := map[string]bool{}
	seen := map[string]int{}
	inFence := false
	for _, line := range strings.Split(doc, "\n") {
		trim := strings.TrimSpace(line)
		if strings.HasPrefix(trim, "```") {
			inFence = !inFence
			continue
		}
		hashes := 0
		for hashes < len(trim) && trim[hashes] == '#' {
			hashes++
		}
		if inFence || hashes == 0 || hashes > 6 || hashes == len(trim) || trim[hashes] != ' ' {
			continue
		}
		s := slugify(trim[hashes+1:])
		if n := seen[s]; n > 0 {
			anchors[fmt.Sprintf("%s-%d", s, n)] = true
		} else {
			anchors[s] = true
		}
		seen[s]++
	}
	return anchors
}

// slugify converts a heading to its GitHub anchor: lowercase, punctuation
// stripped, spaces become hyphens (hyphens and underscores survive).
func slugify(h string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(strings.TrimSpace(h)) {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '-' || r == '_':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// external reports whether a link target is a URL rather than a path.
func external(t string) bool {
	for _, p := range []string{"http://", "https://", "mailto:", "ftp://"} {
		if strings.HasPrefix(t, p) {
			return true
		}
	}
	return false
}

// TestTuningFlags holds docs/TUNING.md, the page of every knob, and the
// commands' flags to each other both ways: every flag of cmd/mario,
// cmd/mariod and cmd/loadgen has a `-name mention there, and every `-name in
// a knob column (the first cell of a table row) is a flag of some cmd/
// binary or of `go test`, so a row for a flag that is gone fails.
func TestTuningFlags(t *testing.T) {
	root := filepath.Join("..", "..")
	tuning, err := os.ReadFile(filepath.Join(root, "docs", "TUNING.md"))
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, f := range strings.Fields("race cpu short bench benchtime benchmem count fuzz fuzztime") {
		known[f] = true
	}
	cmds, err := os.ReadDir(filepath.Join(root, "cmd"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cmds {
		if !c.IsDir() {
			continue
		}
		flags, err := flagsOf(filepath.Join(root, "cmd", c.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range flags {
			known[f] = true
			switch c.Name() {
			case "mario", "mariod", "loadgen":
				if !regexp.MustCompile("`-" + regexp.QuoteMeta(f) + "[^a-z0-9-]").Match(tuning) {
					t.Errorf("docs/TUNING.md: no `-%s mention for the cmd/%s flag", f, c.Name())
				}
			}
		}
	}
	knob := regexp.MustCompile("`-([a-z][a-z0-9-]*)")
	for i, line := range strings.Split(string(tuning), "\n") {
		cells := strings.Split(line, "|")
		if !strings.HasPrefix(line, "|") || len(cells) < 2 {
			continue
		}
		for _, m := range knob.FindAllStringSubmatch(cells[1], -1) {
			if !known[m[1]] {
				t.Errorf("docs/TUNING.md:%d: knob `-%s names no flag of a cmd/ binary or of go test", i+1, m[1])
			}
		}
	}
}

// flagsOf returns the flag names a command's non-test Go files define: the
// first string literal of each flag.Bool, flag.IntVar, flag.Var, … call.
func flagsOf(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	definers := map[string]bool{}
	for _, name := range strings.Fields("Bool BoolVar BoolFunc Duration DurationVar Float64 Float64Var Func Int IntVar Int64 Int64Var String StringVar TextVar Uint UintVar Uint64 Uint64Var Var") {
		definers[name] = true
	}
	var names []string
	for _, pkg := range pkgs {
		ast.Inspect(pkg, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !definers[sel.Sel.Name] {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, err := strconv.Unquote(lit.Value)
					if err == nil {
						names = append(names, name)
					}
					break
				}
			}
			return true
		})
	}
	return names, nil
}
