// Package linttest runs internal/lint analyzers over testdata package
// trees and checks their diagnostics against expectations written as
// comments in the sources — the analysistest convention:
//
//	c.mu.Lock() // want `while holding`
//
// Each `// want "regexp"` (one or more quoted regexps, double-quoted or
// backquoted) on a line demands a diagnostic on that same line whose
// message matches; every diagnostic must be demanded by some want.
// Each testdata tree is a module of its own (a two-line go.mod) loaded
// with lint.Load, so a fake stand-in for a real module package (for
// example a skeletal taskbench/internal/cluster, in a tree whose module
// is taskbench) occupies its real import path. The root module's
// ./... never matches it: a nested module is not part of its parent.
package linttest

import (
	"fmt"
	"go/scanner"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"taskbench/internal/lint"
)

// Run analyzes every package of the module in dir and compares
// diagnostics with want comments.
func Run(t *testing.T, a *lint.Analyzer, dir string) {
	t.Helper()
	session, err := lint.Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	diags, err := session.Run(a)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	wants, err := collectWants(session)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		pos := session.Fset.Position(d.Pos)
		if !consumeWant(wants, pos.Filename, pos.Line, d.Message) {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.rx)
		}
	}
}

type expectation struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

func consumeWant(wants []*expectation, file string, line int, msg string) bool {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.rx.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants scans every comment of every session file for want
// expectations. Comments are re-scanned from the file set's token data
// via each AST file's comment lists.
func collectWants(session *lint.Session) ([]*expectation, error) {
	var wants []*expectation
	for _, pkg := range session.Packages {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					pos := session.Fset.Position(c.Pos())
					ws, err := parseWant(c.Text)
					if err != nil {
						return nil, fmt.Errorf("%s: %v", pos, err)
					}
					for _, rx := range ws {
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, rx: rx})
					}
				}
			}
		}
	}
	return wants, nil
}

// parseWant extracts the quoted regexps of a `// want "..." "..."`
// comment, using the Go scanner so escapes and backquotes both work.
func parseWant(comment string) ([]*regexp.Regexp, error) {
	text := strings.TrimPrefix(strings.TrimSpace(strings.TrimPrefix(comment, "//")), "/*")
	idx := strings.Index(text, "want ")
	if idx < 0 {
		return nil, nil
	}
	rest := text[idx+len("want "):]

	var rxs []*regexp.Regexp
	var sc scanner.Scanner
	fset := token.NewFileSet()
	f := fset.AddFile("want", -1, len(rest))
	sc.Init(f, []byte(rest), nil, 0)
	for {
		_, tok, lit := sc.Scan()
		if tok != token.STRING {
			break
		}
		s, err := strconv.Unquote(lit)
		if err != nil {
			return nil, fmt.Errorf("bad want pattern %s: %v", lit, err)
		}
		rx, err := regexp.Compile(s)
		if err != nil {
			return nil, fmt.Errorf("bad want regexp %q: %v", s, err)
		}
		rxs = append(rxs, rx)
	}
	if len(rxs) == 0 {
		return nil, fmt.Errorf("want comment with no quoted regexp: %s", comment)
	}
	return rxs, nil
}
