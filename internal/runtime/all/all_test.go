package all

import (
	"reflect"
	"slices"
	"testing"

	"taskbench/internal/runtime"
	"taskbench/internal/runtime/hybrid"
	"taskbench/internal/runtime/p2p"
)

// The registry is the seventeen backends of DESIGN §3, and being a
// backend means one thing: an Info plus exactly one kind of policy.
// serial, the reference the others are checked against, is the single
// hand-written Runtime. The backends in DESIGN §3's composition column
// reuse another backend's step: their policy is that step's type or
// embeds it first.
func TestRegistry(t *testing.T) {
	want := []string{
		"actor", "bsp", "central", "coforall", "dataflow", "dtd", "events",
		"graphexec", "hybrid", "p2p", "places", "ptg", "serial", "shard",
		"steal", "taskpool", "tcp",
	}
	if got := runtime.Names(); !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range want {
		rt, err := runtime.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Name() != name || rt.Info().Name != name {
			t.Errorf("%s: Name() = %q, Info().Name = %q", name, rt.Name(), rt.Info().Name)
		}
		_, policy := rt.(runtime.PolicyBacked)
		_, ranks := rt.(runtime.RankBacked)
		if name == "serial" {
			if policy || ranks {
				t.Errorf("serial is engine-backed; it is the independent reference")
			}
		} else if policy == ranks {
			t.Errorf("%s: PolicyBacked = %v, RankBacked = %v, want exactly one", name, policy, ranks)
		}
	}

	for _, c := range []struct {
		name string
		step reflect.Type
	}{
		{"actor", reflect.TypeOf(p2p.Policy{})},
		{"tcp", reflect.TypeOf(p2p.Policy{})},
		{"ptg", reflect.TypeOf(p2p.Policy{})},
		{"shard", reflect.TypeOf(p2p.Policy{})},
		{"coforall", reflect.TypeOf(hybrid.Policy{})},
	} {
		rt, err := runtime.New(c.name)
		if err != nil {
			t.Fatal(err)
		}
		rb, ok := rt.(runtime.RankBacked)
		if !ok {
			t.Errorf("%s: not RankBacked", c.name)
			continue
		}
		typ := reflect.TypeOf(rb.RankPolicy())
		if typ.Kind() == reflect.Pointer {
			typ = typ.Elem()
		}
		embeds := typ.Kind() == reflect.Struct && typ.NumField() > 0 &&
			typ.Field(0).Anonymous && typ.Field(0).Type == c.step
		if typ != c.step && !embeds {
			t.Errorf("%s: policy %v is not %v's step", c.name, typ, c.step)
		}
	}
}
