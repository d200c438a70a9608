package gkmeans_test

// Markdown link check for the maintained doc pages: every relative link
// must point at an existing file, and every intra-repo anchor at a real
// heading. CI runs this in the docs job so README/ARCHITECTURE references
// cannot rot as files move. PAPERS.md and SNIPPETS.md are excluded — they
// are retrieved source material, not documentation this repo maintains.
// TestDocCommandsExist does the same for the programs the docs tell a
// reader to run.

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// inlineLink matches [text](target); images ![alt](target) share the
// bracket-paren shape and are caught by the same expression.
var inlineLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

var skippedDocs = map[string]bool{
	"PAPERS.md":   true,
	"SNIPPETS.md": true,
}

func TestMarkdownLinks(t *testing.T) {
	pages, err := filepath.Glob("*.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) == 0 {
		t.Fatal("no markdown pages found — test running in the wrong directory?")
	}
	checked := 0
	for _, page := range pages {
		if skippedDocs[page] {
			continue
		}
		blob, err := os.ReadFile(page)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range inlineLink.FindAllStringSubmatch(string(blob), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"):
				continue // external; not checked offline
			}
			checked++
			file, anchor, _ := strings.Cut(target, "#")
			if file == "" {
				file = page // pure anchor: #section within the same page
			}
			if strings.Contains(file, "..") || strings.HasPrefix(file, "/") {
				t.Errorf("%s: link %q escapes the repository", page, target)
				continue
			}
			if _, err := os.Stat(filepath.FromSlash(file)); err != nil {
				t.Errorf("%s: link target %q does not exist", page, target)
				continue
			}
			if anchor != "" && strings.HasSuffix(file, ".md") {
				if !hasAnchor(t, file, anchor) {
					t.Errorf("%s: link %q: no heading for anchor #%s in %s", page, target, anchor, file)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no relative links checked — the extraction regex may have rotted")
	}
}

// docCommand matches the two shapes in which the docs name a program of
// this module: `go run ./<path>` and a bare `./cmd/<name>`.
var docCommand = regexp.MustCompile(`(?:go run \./|\./cmd/)[A-Za-z0-9_/-]+`)

func TestDocCommandsExist(t *testing.T) {
	pages := []string{
		"README.md", "ARCHITECTURE.md", "OPERATIONS.md",
		"benchmark/README.md", ".claude/skills/verify/SKILL.md",
	}
	checked := 0
	for _, page := range pages {
		blob, err := os.ReadFile(filepath.FromSlash(page))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docCommand.FindAllString(string(blob), -1) {
			checked++
			dir := strings.TrimPrefix(m, "go run ")
			if !holdsPackageMain(dir) {
				t.Errorf("%s: %q names no directory holding a package main", page, m)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no commands checked — the extraction regex may have rotted")
	}
}

func holdsPackageMain(dir string) bool {
	files, _ := filepath.Glob(filepath.Join(filepath.FromSlash(dir), "*.go"))
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.PackageClauseOnly)
		if err == nil && f.Name.Name == "main" {
			return true
		}
	}
	return false
}

// hasAnchor reports whether the markdown file has a heading whose
// GitHub-style slug equals anchor (lowercase, spaces to hyphens,
// underscores kept, other punctuation dropped).
func hasAnchor(t *testing.T, file, anchor string) bool {
	t.Helper()
	blob, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if !strings.HasPrefix(line, "#") {
			continue
		}
		heading := strings.TrimLeft(line, "# ")
		if slugify(heading) == anchor {
			return true
		}
	}
	return false
}

func slugify(heading string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(strings.TrimSpace(heading)) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		case r == ' ', r == '-':
			b.WriteByte('-')
		}
	}
	return b.String()
}
