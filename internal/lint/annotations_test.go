package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestHotPathAnnotationCoverage pins the //taskbench:hotpath annotation
// set to the packages the benchmark's zero-allocation claim rests on:
// the shared-memory engine's task loop, the compiled dependence table
// and point iterator, payload fill/validate, the rank fabric's
// per-message and per-step paths, and the tcp mesh's batch send and
// demux. An annotation removed by a refactor fails here, not
// silently in a future allocation regression.
func TestHotPathAnnotationCoverage(t *testing.T) {
	want := map[string][]string{
		"../core":         {"ExecutePoint", "WriteOutput", "checkInput", "PointDeps", "Next"},
		"../runtime/exec": {"runWorker", "Execute", "takeRow", "releaseRow", "RunInto", "Send", "SendEdge", "RecvEdge", "Flush"},
		"../runtime/tcp":  {"Send", "flushTo", "demux", "deliver", "Recv", "SendEdge", "RecvEdge", "Flush"},
		// The one queue policy written since the analyzer exists, and the
		// event wiring dataflow runs concurrently with execution.
		"../runtime/places": {"Push", "Pop"},
		"../runtime/events": {"Wire"},
	}
	for dir, fns := range want {
		annotated := hotpathFuncs(t, dir)
		if len(annotated) == 0 {
			t.Errorf("%s: no //taskbench:hotpath annotations at all", dir)
			continue
		}
		for _, fn := range fns {
			if !annotated[fn] {
				t.Errorf("%s: function %s is not annotated //taskbench:hotpath", dir, fn)
			}
		}
	}
}

// hotpathFuncs parses every non-test file of dir and returns the names
// of functions whose doc comment carries the hotpath directive.
func hotpathFuncs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	fset := token.NewFileSet()
	annotated := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if strings.TrimSpace(c.Text) == "//taskbench:hotpath" {
					annotated[fd.Name.Name] = true
				}
			}
		}
	}
	return annotated
}
