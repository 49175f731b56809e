package cluster

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestRegisteredFamiliesAreMetricConstants holds the coordinator's
// registry to the exported metric-name contract: every family a scrape
// declares (its "# TYPE" line) must be the value of a Metric* constant
// of metrics.go, and every such constant must be registered. A computed
// name, a literal with no constant and a constant nobody registers all
// fail here, by name; a duplicate registration already panics in
// newCoordMetrics, which every coordinator test runs.
func TestRegisteredFamiliesAreMetricConstants(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "metrics.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	constant := map[string]string{} // metric name → constant
	ast.Inspect(file, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || len(vs.Values) != 1 || !strings.HasPrefix(vs.Names[0].Name, "Metric") {
			return true
		}
		lit, ok := vs.Values[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			t.Errorf("%s is not a string literal", vs.Names[0].Name)
			return true
		}
		name, _ := strconv.Unquote(lit.Value)
		if other, dup := constant[name]; dup {
			t.Errorf("%s and %s both name %q", other, vs.Names[0].Name, name)
		}
		constant[name] = vs.Names[0].Name
		return true
	})
	if len(constant) == 0 {
		t.Fatal("metrics.go declares no Metric* constants")
	}

	coord, err := Start(Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	var sb strings.Builder
	if err := coord.metrics.reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			registered[f[2]] = true
		}
	}

	for name := range registered {
		if constant[name] == "" {
			t.Errorf("the coordinator registers %q, which no Metric* constant names", name)
		}
	}
	for name, c := range constant {
		if !registered[name] {
			t.Errorf("%s (%q) is never registered by the coordinator", c, name)
		}
	}
}

// TestRegistryRendersWhileLoopBusy pins the registry's one-way
// dependency: rendering reads instruments and never calls back into
// the coordinator, so a scrape completes even while the loop is busy.
func TestRegistryRendersWhileLoopBusy(t *testing.T) {
	coord, err := Start(Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	done := make(chan error, 1)
	blocked := false
	coord.do(func() {
		go func() { done <- coord.metrics.reg.WritePrometheus(io.Discard) }()
		select {
		case err = <-done:
		case <-time.After(2 * time.Second):
			blocked = true
		}
	})
	if blocked {
		err = <-done
		t.Error("WritePrometheus blocked for 2s while the loop was busy: the registry calls back into the coordinator")
	}
	if err != nil {
		t.Fatal(err)
	}
}
