package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestGoldenSpecDecode pins the on-disk spec schema: the checked-in
// input decodes to exactly the expected configuration, and its
// normalized re-encoding matches the checked-in golden byte for byte.
// Cluster mode ships these documents between processes (and, across an
// upgrade, between versions), so schema drift must fail a test, not a
// fleet.
func TestGoldenSpecDecode(t *testing.T) {
	in, err := os.ReadFile(filepath.Join("testdata", "spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Decode(bytes.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Graphs) != 2 || spec.Workers != 8 || spec.Nodes != 2 {
		t.Fatalf("unexpected decode: %+v", spec)
	}
	g0, g1 := spec.Graphs[0], spec.Graphs[1]
	if g0.Steps != 100 || g0.Width != 16 || g0.Type != "stencil_1d" ||
		g0.Kernel != "compute_bound" || g0.Iterations != 4096 ||
		g0.Output != 1024 || g0.Seed != 42 {
		t.Errorf("graph 0 decoded wrong: %+v", g0)
	}
	if g1.Type != "spread" || g1.Radix != 3 || g1.Period != 5 ||
		g1.Kernel != "memory_bound" || g1.SpanBytes != 65536 || g1.Scratch != 1048576 {
		t.Errorf("graph 1 decoded wrong: %+v", g1)
	}

	app, err := spec.ToApp()
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := Encode(&out, FromApp(app)); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "spec.normalized.json", []byte(out.String()))
}

// TestGoldenMessages pins the JSON rendering of the control messages
// (the human-readable fixture beside messages.bin): every message type, one line each, decoding
// back to the message it was rendered from.
func TestGoldenMessages(t *testing.T) {
	msgs := goldenFor("jsonl")
	var out bytes.Buffer
	for i := range msgs {
		msgs[i].V = ProtoVersion
		out.Write(mustJSON(t, msgs[i]))
		out.WriteByte('\n')
	}
	compareGolden(t, "messages.jsonl", out.Bytes())

	golden, err := os.ReadFile(filepath.Join("testdata", "messages.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(golden, []byte("\n")), []byte("\n"))
	if len(lines) != len(msgs) {
		t.Fatalf("golden stream has %d messages, want %d", len(lines), len(msgs))
	}
	for k, want := range msgs {
		var got Message
		if err := json.Unmarshal(lines[k], &got); err != nil {
			t.Fatalf("message %d: %v", k, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("message %d:\n want %+v\n got  %+v", k, want, got)
		}
	}
}

// TestGoldenMessagesBinary pins the binary framing byte for byte: the
// encoder's output for every message type matches the checked-in
// stream, and the checked-in stream decodes back to the same messages.
// Any layout change is a protocol change and must bump ProtoVersion, so
// this test failing without a version bump is the bug, not the golden
// file.
func TestGoldenMessagesBinary(t *testing.T) {
	msgs := binaryTestMessages()
	var out bytes.Buffer
	for _, m := range msgs {
		if err := WriteMessageBinary(&out, m); err != nil {
			t.Fatal(err)
		}
	}
	compareGolden(t, "messages.bin", out.Bytes())

	golden, err := os.ReadFile(filepath.Join("testdata", "messages.bin"))
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(bytes.NewReader(golden))
	for k, want := range msgs {
		got, err := ReadMessageFrom(br)
		if err != nil {
			t.Fatalf("message %d: %v", k, err)
		}
		want.V = ProtoVersion
		if !reflect.DeepEqual(want, got) {
			t.Errorf("message %d:\n want %+v\n got  %+v", k, want, got)
		}
	}
	if _, err := ReadMessageFrom(br); err == nil {
		t.Error("golden stream has extra messages")
	}
}

// TestShapeKeyIgnoresKernels pins the configuration-reuse contract:
// kernel changes keep the shape, structural changes do not.
func TestShapeKeyIgnoresKernels(t *testing.T) {
	base := AppSpec{Workers: 4, Graphs: []GraphSpec{{
		Steps: 10, Width: 4, Type: "stencil_1d",
		KernelSpec: KernelSpec{Kernel: "compute_bound", Iterations: 1024},
	}}}
	kernelSwap := base
	kernelSwap.Graphs = []GraphSpec{base.Graphs[0]}
	kernelSwap.Graphs[0].Iterations = 1
	kernelSwap.Graphs[0].Kernel = "busy_wait"
	kernelSwap.Graphs[0].WaitNanos = 500
	if ShapeKey(base) != ShapeKey(kernelSwap) {
		t.Error("kernel change altered the shape key")
	}
	for _, mutate := range []func(*GraphSpec){
		func(g *GraphSpec) { g.Steps = 11 },
		func(g *GraphSpec) { g.Width = 8 },
		func(g *GraphSpec) { g.Type = "fft" },
		func(g *GraphSpec) { g.Output = 64 },
		func(g *GraphSpec) { g.Seed = 1 },
		func(g *GraphSpec) { g.Radix = 3 },
		func(g *GraphSpec) { g.Period = 2 },
		func(g *GraphSpec) { g.Fraction = 0.5 },
		func(g *GraphSpec) { g.Scratch = 4096 },
	} {
		changed := base
		changed.Graphs = []GraphSpec{base.Graphs[0]}
		mutate(&changed.Graphs[0])
		if ShapeKey(base) == ShapeKey(changed) {
			t.Errorf("structural change %+v did not alter the shape key", changed.Graphs[0])
		}
	}
	moreRanks := base
	moreRanks.Workers = 8
	if ShapeKey(base) == ShapeKey(moreRanks) {
		t.Error("rank-count change did not alter the shape key")
	}
	moreNodes := base
	moreNodes.Nodes = 2
	if ShapeKey(base) == ShapeKey(moreNodes) {
		t.Error("node-count change did not alter the shape key")
	}
	yes, no := true, false
	keys := map[string]bool{}
	for _, v := range []*bool{nil, &no, &yes} {
		s := base
		s.Validate = v
		keys[ShapeKey(s)] = true
	}
	if len(keys) != 3 {
		t.Errorf("validate nil/false/true give %d distinct shape keys, want 3", len(keys))
	}
	second := base.Graphs[0]
	second.Type = "fft"
	ab, ba := base, base
	ab.Graphs = []GraphSpec{base.Graphs[0], second}
	ba.Graphs = []GraphSpec{second, base.Graphs[0]}
	if ShapeKey(ab) == ShapeKey(ba) {
		t.Error("swapping two graphs did not alter the shape key")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// compareGolden checks got against the named golden file, rewriting it
// under -update.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/wire -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden:\n got: %s\nwant: %s", name, got, want)
	}
}
