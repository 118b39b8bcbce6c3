package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// updateGolden regenerates the golden fenced blocks in EXPERIMENTS.md and
// docs/SCHEMES.md in place:
// go test ./internal/experiments -run Golden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite EXPERIMENTS.md and docs/SCHEMES.md golden snippets from current output")

// goldenOutputs generates the deterministic fast-mode outputs documented in
// EXPERIMENTS.md, keyed by their <!-- golden:NAME --> marker.
func goldenOutputs(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)

	dr, err := Drift(Opts{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	PrintDrift(&b, dr)
	out["drift-fast"] = b.String()

	st, err := SearchTrace(Opts{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	PrintSearchTrace(&b, st)
	out["searchtrace-fast"] = b.String()

	hr, err := Hetero(Opts{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	PrintHetero(&b, hr)
	out["hetero-fast"] = b.String()

	sr, err := Straggler(Opts{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	PrintStraggler(&b, sr)
	out["straggler-fast"] = b.String()

	zb, err := ZeroBubble(Opts{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	PrintZeroBubble(&b, zb)
	out["zerobubble-fast"] = b.String()
	return out
}

// schemeGoldenOutputs renders the scheme-catalogue diagrams pinned in
// docs/SCHEMES.md, keyed by their <!-- golden:scheme-NAME --> marker.
func schemeGoldenOutputs(t *testing.T) map[string]string {
	t.Helper()
	entries, err := SchemeCatalogue()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		out["scheme-"+string(e.Scheme)] = e.Diagram
	}
	return out
}

// experimentsPath locates the repo-root EXPERIMENTS.md from the package dir.
func experimentsPath() string {
	return filepath.Join("..", "..", "EXPERIMENTS.md")
}

// schemesPath locates docs/SCHEMES.md from the package dir.
func schemesPath() string {
	return filepath.Join("..", "..", "docs", "SCHEMES.md")
}

// extractGolden returns the contents of the fenced code block that follows
// the <!-- golden:name --> marker, or an error describing what is missing.
func extractGolden(doc, name string) (string, error) {
	marker := fmt.Sprintf("<!-- golden:%s -->", name)
	idx := strings.Index(doc, marker)
	if idx < 0 {
		return "", fmt.Errorf("marker %s not found", marker)
	}
	rest := doc[idx+len(marker):]
	open := strings.Index(rest, "```")
	if open < 0 {
		return "", fmt.Errorf("no fenced block after %s", marker)
	}
	rest = rest[open:]
	nl := strings.Index(rest, "\n")
	if nl < 0 {
		return "", fmt.Errorf("unterminated fence after %s", marker)
	}
	rest = rest[nl+1:]
	end := strings.Index(rest, "```")
	if end < 0 {
		return "", fmt.Errorf("unclosed fenced block after %s", marker)
	}
	return rest[:end], nil
}

// replaceGolden swaps the fenced block following the marker with content.
func replaceGolden(doc, name, content string) (string, error) {
	old, err := extractGolden(doc, name)
	if err != nil {
		return "", err
	}
	marker := fmt.Sprintf("<!-- golden:%s -->", name)
	idx := strings.Index(doc, marker)
	blockStart := idx + len(marker)
	rel := strings.Index(doc[blockStart:], old)
	if rel < 0 {
		return "", fmt.Errorf("golden block for %s not found for replacement", name)
	}
	pos := blockStart + rel
	return doc[:pos] + content + doc[pos+len(old):], nil
}

// TestGoldenDocs pins the expected-output snippets in EXPERIMENTS.md and the
// scheme-catalogue diagrams in docs/SCHEMES.md to the actual deterministic
// output of the corresponding renderers, so the documentation cannot drift
// from the code.
func TestGoldenDocs(t *testing.T) {
	docs := []struct {
		path    string
		outputs map[string]string
	}{
		{experimentsPath(), goldenOutputs(t)},
		{schemesPath(), schemeGoldenOutputs(t)},
	}
	for _, d := range docs {
		data, err := os.ReadFile(d.path)
		if err != nil {
			t.Errorf("reading %s: %v", d.path, err)
			continue
		}
		doc := string(data)

		if *updateGolden {
			for name, want := range d.outputs {
				doc, err = replaceGolden(doc, name, want)
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(d.path, []byte(doc), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("rewrote golden snippets in %s", d.path)
			continue
		}

		for name, want := range d.outputs {
			got, err := extractGolden(doc, name)
			if err != nil {
				t.Errorf("%s: %v (run `go test ./internal/experiments -run Golden -update-golden` after adding the marker)", d.path, err)
				continue
			}
			if got != want {
				t.Errorf("%s golden snippet %q is stale.\n--- documented ---\n%s\n--- actual ---\n%s\nRegenerate with: go test ./internal/experiments -run Golden -update-golden", d.path, name, got, want)
			}
		}
	}
}
