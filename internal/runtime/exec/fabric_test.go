package exec

import (
	"strings"
	"testing"
	"time"

	"taskbench/internal/core"
)

func fabricApp(width int) *core.App {
	return core.NewApp(core.MustNew(core.Params{
		Timesteps: 4, MaxWidth: width, Dependence: core.Stencil1D, OutputBytes: 16,
	}))
}

// planFabric builds the in-process fabric the engine would build.
func planFabric(app *core.App, ranks int) *Fabric {
	return NewFabric(BuildRankPlan(app, ranks), edgeCap, nil)
}

func TestFabricSendCopies(t *testing.T) {
	f := planFabric(fabricApp(8), 2) // ranks own [0,4) and [4,8)
	payload := []byte("0123456789abcdef")
	f.Send(0, 3, 4, payload)
	payload[0] = 'X' // producer reuses its buffer
	got := f.Recv(0, 3, 4)
	if string(got) != "0123456789abcdef" {
		t.Errorf("Recv = %q, want the pre-mutation copy", got)
	}
}

func TestFabricSingleRankHasNoEdges(t *testing.T) {
	if edges := BuildRankPlan(fabricApp(8), 1).Edges(0); len(edges) != 0 {
		t.Fatalf("one rank has cross-rank edges %v", edges)
	}
}

func TestCrossEdgesMatchesFabric(t *testing.T) {
	app := fabricApp(8)
	g := app.Graphs[0]
	for _, ranks := range []int{1, 2, 3} {
		f := planFabric(app, ranks)
		edges := map[Edge]int{}
		last := Edge{-1, -1}
		CrossEdges(g, ranks, func(producer, consumer int) {
			e := Edge{Producer: producer, Consumer: consumer}
			edges[e]++
			if e.Consumer < last.Consumer || (e.Consumer == last.Consumer && e.Producer <= last.Producer) {
				t.Errorf("ranks=%d: edge %+v enumerated after %+v, want (consumer, producer) order", ranks, e, last)
			}
			last = e
		})
		for e, n := range edges {
			if n != 1 {
				t.Errorf("ranks=%d: edge %+v enumerated %d times", ranks, e, n)
			}
			if OwnerOf(e.Producer, g.MaxWidth, ranks) == OwnerOf(e.Consumer, g.MaxWidth, ranks) {
				t.Errorf("ranks=%d: edge %+v does not cross a rank boundary", ranks, e)
			}
		}
		// The fabric must have a ring for exactly the enumerated edges.
		for i := -1; i <= g.MaxWidth; i++ {
			for j := -1; j <= g.MaxWidth; j++ {
				_, want := edges[Edge{Producer: j, Consumer: i}]
				if got := f.Ring(0, j, i) != nil; got != want {
					t.Errorf("ranks=%d: has ring %d→%d = %v, want %v", ranks, j, i, got, want)
				}
			}
		}
	}
}

// TestFabricFromUnsortedEdges pins the column-addressed contract of
// NewFabricFromEdges: any edge list, in any order and with duplicates,
// gets one ring per distinct edge.
func TestFabricFromUnsortedEdges(t *testing.T) {
	f := NewFabricFromEdges([][]Edge{{{5, 2}, {0, 1}, {3, 2}, {0, 1}, {1, 0}}})
	for k, e := range []Edge{{1, 0}, {0, 1}, {3, 2}, {5, 2}} {
		f.Send(0, e.Producer, e.Consumer, []byte{byte(k)})
	}
	for k, e := range []Edge{{1, 0}, {0, 1}, {3, 2}, {5, 2}} {
		if got := f.Recv(0, e.Producer, e.Consumer); len(got) != 1 || got[0] != byte(k) {
			t.Errorf("edge %+v delivered %v, want [%d]", e, got, k)
		}
	}
	if f.Ring(0, 4, 2) != nil || f.Ring(0, 0, 3) != nil {
		t.Error("fabric has rings for edges it was not given")
	}
}

// TestFabricUnknownEdgePanics: the channel fabric indexed a missing map
// entry, got a nil channel and blocked forever. An edge that does not
// exist is a programmer error and must say so, at once.
func TestFabricUnknownEdgePanics(t *testing.T) {
	f := planFabric(fabricApp(8), 2)
	for name, op := range map[string]func(){
		"send_intra_rank": func() { f.Send(0, 2, 3, []byte{1}) },
		"recv_non_edge":   func() { f.Recv(0, 0, 7) },
		"send_bad_graph":  func() { f.Send(1, 3, 4, []byte{1}) },
		"recv_bad_column": func() { f.Recv(0, 3, 99) },
	} {
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			op()
		}()
		select {
		case r := <-done:
			msg, _ := r.(string)
			if !strings.Contains(msg, "no edge g") || !strings.Contains(msg, "→") {
				t.Errorf("%s: recovered %v, want a panic naming the edge", name, r)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: hung on an edge that does not exist", name)
		}
	}
}
