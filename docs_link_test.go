package mobipriv_test

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsLinks is the docs-job link checker: every relative markdown
// link in README.md and docs/ must resolve to an existing file, and
// every anchor (same-file or cross-file) to a real heading. External
// http(s) links are only checked for well-formedness, so the test
// needs no network and cannot flake. Markdown files cited in Go
// comments must exist too (checkGoCommentRefs).
func TestDocsLinks(t *testing.T) {
	checkGoCommentRefs(t)
	files := []string{"README.md"}
	entries, err := os.ReadDir("docs")
	if err != nil {
		t.Fatalf("docs/ directory: %v", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".md") {
			files = append(files, filepath.Join("docs", e.Name()))
		}
	}
	if len(files) < 4 {
		t.Fatalf("expected README.md + at least 3 docs, found %v", files)
	}

	anchors := make(map[string]map[string]bool) // file -> heading slugs
	contents := make(map[string]string)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		contents[f] = string(data)
		anchors[f] = headingSlugs(string(data))
	}

	linkRE := regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	for _, f := range files {
		for _, m := range linkRE.FindAllStringSubmatch(stripCodeBlocks(contents[f]), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"), strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"):
				continue
			}
			path, anchor, _ := strings.Cut(target, "#")
			resolved := f
			if path != "" {
				resolved = filepath.Join(filepath.Dir(f), path)
				if _, err := os.Stat(resolved); err != nil {
					t.Errorf("%s: broken link %q: %v", f, target, err)
					continue
				}
			}
			if anchor != "" {
				slugs, ok := anchors[resolved]
				if !ok {
					// Anchor into a file outside the checked set (e.g. a
					// source file): existence of the file is enough.
					continue
				}
				if !slugs[anchor] {
					t.Errorf("%s: link %q: no heading with anchor %q in %s", f, target, anchor, resolved)
				}
			}
		}
	}
}

// checkGoCommentRefs fails on every markdown file named in a comment of
// the root module's Go files that exists neither beside the Go file nor
// at the repository root. Nested modules and dot directories are
// skipped.
func checkGoCommentRefs(t *testing.T) {
	t.Helper()
	mdRE := regexp.MustCompile(`[\w./-]*\w\.md\b`)
	exists := func(p string) bool { _, err := os.Stat(p); return err == nil }
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || exists(filepath.Join(path, "go.mod"))) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, ref := range mdRE.FindAllString(cg.Text(), -1) {
				if !exists(filepath.Join(filepath.Dir(path), ref)) && !exists(ref) {
					t.Errorf("%s: comment cites %s, which does not exist", fset.Position(cg.Pos()), ref)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// headingSlugs collects the GitHub-style anchor slugs of a markdown
// document's headings (lowercase, punctuation stripped, spaces to
// hyphens, -N suffixes for duplicates).
func headingSlugs(doc string) map[string]bool {
	slugs := make(map[string]bool)
	seen := make(map[string]int)
	for _, line := range strings.Split(stripCodeBlocks(doc), "\n") {
		if !strings.HasPrefix(line, "#") {
			continue
		}
		text := strings.TrimSpace(strings.TrimLeft(line, "#"))
		text = regexp.MustCompile("`([^`]*)`").ReplaceAllString(text, "$1")
		var b strings.Builder
		for _, r := range strings.ToLower(text) {
			switch {
			case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
				b.WriteRune(r)
			case r == ' ':
				b.WriteByte('-')
			}
		}
		slug := b.String()
		if n := seen[slug]; n > 0 {
			slugs[fmt.Sprintf("%s-%d", slug, n)] = true
		} else {
			slugs[slug] = true
		}
		seen[slug]++
	}
	return slugs
}

// stripCodeBlocks blanks fenced code blocks so link-shaped text inside
// them is not treated as a link and fence contents don't produce
// headings.
func stripCodeBlocks(doc string) string {
	var out []string
	in := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			in = !in
			out = append(out, "")
			continue
		}
		if in {
			out = append(out, "")
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}
