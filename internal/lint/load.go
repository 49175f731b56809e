package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	Standard   bool
	Export     string
	GoFiles    []string
	Module     *struct {
		Path string
		Main bool
	}
	Error *struct {
		Err string
	}
}

// Load enumerates the packages matched by patterns (relative to dir,
// e.g. "./...") with `go list -deps -export -json`, type-checks the
// module's packages from source in dependency order, and resolves every
// out-of-module import through the compiler export data go list just
// produced — no network, no module downloads, one shared FileSet.
func Load(dir string, patterns ...string) (*Session, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	exports := map[string]string{}
	var mods []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("%s: %s", lp.ImportPath, lp.Error.Err)
		}
		switch {
		case lp.Module != nil && lp.Module.Main:
			// -deps emits dependencies before dependents, so mods is
			// already in type-check order.
			p := lp
			mods = append(mods, &p)
		case lp.Export != "":
			exports[lp.ImportPath] = lp.Export
		}
	}
	if len(mods) == 0 {
		return nil, fmt.Errorf("no module packages matched %v", patterns)
	}

	c := newChecker(exports)
	for _, lp := range mods {
		files := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, f)
		}
		if _, err := c.check(lp.ImportPath, files); err != nil {
			return nil, err
		}
	}
	return c.session, nil
}

// checker type-checks a sequence of source packages against one shared
// FileSet and session, resolving imports through already-checked
// session packages first and compiler export data second.
type checker struct {
	session *Session
	exports map[string]string
	gc      types.Importer
}

func newChecker(exports map[string]string) *checker {
	fset := token.NewFileSet()
	c := &checker{
		session: &Session{
			Fset:   fset,
			ByPath: map[string]*Package{},
			facts:  map[factKey]any{},
		},
		exports: exports,
	}
	c.gc = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	return c
}

// Import implements types.Importer over the session.
func (c *checker) Import(path string) (*types.Package, error) {
	if p, ok := c.session.ByPath[path]; ok {
		return p.Types, nil
	}
	return c.gc.Import(path)
}

// check parses and type-checks one package from its source files and
// adds it to the session.
func (c *checker) check(path string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(c.session.Fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: c}
	tpkg, err := conf.Check(path, c.session.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	pkg := &Package{Path: path, Files: files, Types: tpkg, TypesInfo: info}
	c.session.ByPath[path] = pkg
	c.session.Packages = append(c.session.Packages, pkg)
	return pkg, nil
}
