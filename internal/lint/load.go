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
	"sort"
	"strconv"
	"strings"
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
			state:  map[string]any{},
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

// LoadTree type-checks a tree of source packages rooted at srcRoot
// (srcRoot/<import path>/*.go — the analysistest testdata layout),
// starting from the named packages and following their imports inside
// the tree. Imports that leave the tree resolve through compiler export
// data obtained from one `go list` invocation over the needed paths.
func LoadTree(srcRoot string, paths ...string) (*Session, error) {
	// Pass 1: parse the requested packages and their in-tree imports to
	// discover the full package set and the external import closure.
	fset := token.NewFileSet() // throwaway; reparsed by the checker
	type srcPkg struct {
		path  string
		files []string
	}
	parsed := map[string]*srcPkg{}
	external := map[string]bool{}
	var order []string // DFS postorder = dependency order

	var visit func(path string) error
	visit = func(path string) error {
		if _, ok := parsed[path]; ok {
			return nil
		}
		dir := filepath.Join(srcRoot, filepath.FromSlash(path))
		entries, err := os.ReadDir(dir)
		if err != nil {
			return fmt.Errorf("package %q not found under %s: %w", path, srcRoot, err)
		}
		sp := &srcPkg{path: path}
		parsed[path] = sp
		var imports []string
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			name := filepath.Join(dir, e.Name())
			sp.files = append(sp.files, name)
			f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, im := range f.Imports {
				p, err := strconv.Unquote(im.Path.Value)
				if err != nil {
					continue
				}
				imports = append(imports, p)
			}
		}
		if len(sp.files) == 0 {
			return fmt.Errorf("package %q under %s has no Go files", path, srcRoot)
		}
		for _, im := range imports {
			if _, err := os.Stat(filepath.Join(srcRoot, filepath.FromSlash(im))); err == nil {
				if err := visit(im); err != nil {
					return err
				}
			} else {
				external[im] = true
			}
		}
		order = append(order, path)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}

	// go list runs from the process working directory (inside the
	// module), not srcRoot: testdata trees are not modules.
	exports, err := exportData(".", external)
	if err != nil {
		return nil, err
	}
	c := newChecker(exports)
	for _, path := range order {
		sp := parsed[path]
		sort.Strings(sp.files)
		if _, err := c.check(path, sp.files); err != nil {
			return nil, err
		}
	}
	return c.session, nil
}

// exportData maps every external import (and its transitive closure) to
// a compiler export-data file via one `go list -deps -export` run.
func exportData(dir string, pkgs map[string]bool) (map[string]string, error) {
	exports := map[string]string{}
	if len(pkgs) == 0 {
		return exports, nil
	}
	args := []string{"list", "-deps", "-export", "-json"}
	for p := range pkgs {
		args = append(args, p)
	}
	sort.Strings(args[4:])
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", args[4:], err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
	}
	return exports, nil
}
