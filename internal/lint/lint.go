// Package lint is a self-contained static-analysis framework plus the
// taskbenchvet analyzer that enforces the coordinator's lock hierarchy
// (lockorder) — a property of every path through the code, which a
// test, seeing only the paths it runs, cannot check. What a test can
// see is a test: the wire schema's exhaustiveness lives in
// internal/wire's schema_test.go, the metric names' in
// internal/cluster's metrics_test.go, and the zero-allocation task path
// in the warm testing.AllocsPerRun tests of core, kernels, exec, tcp
// and cluster.
//
// The framework mirrors the golang.org/x/tools go/analysis API shape —
// Analyzer, Pass, Diagnostic, cross-package facts — but is built on the
// standard library only (go/parser, go/types, go/importer), because the
// module deliberately has zero dependencies. Packages are enumerated
// with `go list -deps -export -json`, module packages are type-checked
// from source in dependency order against one shared FileSet, and
// out-of-module imports resolve through compiler export data, so the
// whole session shares one types.Object world and facts are plain map
// lookups.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run is invoked once per package, in dependency order, so a pass
	// may rely on facts exported while analyzing its imports.
	Run func(*Pass) error
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// A Package is one type-checked module (or testdata) package in a
// Session.
type Package struct {
	Path      string
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// A Session holds every package of one analysis run, type-checked in
// dependency order against a shared FileSet. Analyzers run over the
// packages in that order, so by the time a pass sees a call into
// another session package, that package's facts already exist.
type Session struct {
	Fset     *token.FileSet
	Packages []*Package // dependency order: imports before importers
	ByPath   map[string]*Package

	facts map[factKey]any
}

type factKey struct {
	analyzer string
	obj      types.Object
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Session   *Session
	Pkg       *Package
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// ExportFact associates v with obj for this analyzer, visible to later
// passes of the same analyzer in this session.
func (p *Pass) ExportFact(obj types.Object, v any) {
	p.Session.facts[factKey{p.Analyzer.Name, obj}] = v
}

// ImportFact returns the fact previously exported for obj by this
// analyzer, if any.
func (p *Pass) ImportFact(obj types.Object) (any, bool) {
	v, ok := p.Session.facts[factKey{p.Analyzer.Name, obj}]
	return v, ok
}

// InSession reports whether pkg is one of the session's own packages —
// the module-internal test used by analyzers that follow static calls
// (testdata packages count, stdlib does not).
func (s *Session) InSession(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	_, ok := s.ByPath[pkg.Path()]
	return ok
}

// Run applies one analyzer to every package of the session and returns
// its findings sorted by position.
func (s *Session) Run(a *Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range s.Packages {
		pass := &Pass{
			Analyzer:  a,
			Session:   s,
			Pkg:       pkg,
			Fset:      s.Fset,
			Files:     pkg.Files,
			Types:     pkg.Types,
			TypesInfo: pkg.TypesInfo,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// Analyzers lists every taskbenchvet analyzer, in the order the driver
// runs them.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		LockOrder,
	}
}
