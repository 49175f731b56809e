package all

import (
	"slices"
	"testing"

	"taskbench/internal/runtime"
)

// The registry is the seventeen backends of DESIGN §3, and being a
// backend means one thing: an Info plus exactly one kind of policy.
// serial, the reference the others are checked against, is the single
// hand-written Runtime.
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
}
