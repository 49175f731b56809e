package wire

// Checks that hold binary.go's hand-written field schedule, the
// type-code table and the golden lists to the declarations in proto.go
// and wire.go: a new field or message type that misses one fails here,
// by name.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// walk visits v and then everything reachable from it, in declaration
// order. A visit may allocate the pointer or slice it is handed.
func walk(path string, v reflect.Value, visit func(path string, v reflect.Value)) {
	visit(path, v)
	switch v.Kind() {
	case reflect.Ptr:
		if !v.IsNil() {
			walk(path, v.Elem(), visit)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i), visit)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			walk(path+"."+v.Type().Field(i).Name, v.Field(i), visit)
		}
	}
}

// leaves flattens a message to path → value of every scalar field.
func leaves(m *Message) map[string]any {
	out := map[string]any{}
	walk("Message", reflect.ValueOf(m).Elem(), func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Ptr, reflect.Slice, reflect.Struct:
		default:
			out[path] = v.Interface()
		}
	})
	return out
}

// TestEveryFieldRoundTrips gives every scalar of Message — through
// AppSpec, GraphSpec, KernelSpec, StatsInfo and both lists — a distinct
// non-zero value and requires each to survive encode∘decode: a field
// the encoder or decoder skips comes back zero, one they disagree on
// comes back as its neighbour's value.
func TestEveryFieldRoundTrips(t *testing.T) {
	var sent Message
	n := 0
	walk("Message", reflect.ValueOf(&sent).Elem(), func(path string, v reflect.Value) {
		n++
		switch v.Kind() {
		case reflect.Struct:
		case reflect.Ptr:
			v.Set(reflect.New(v.Type().Elem()))
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		case reflect.String:
			v.SetString(fmt.Sprint("s", n))
		case reflect.Int, reflect.Int64:
			v.SetInt(int64(n))
		case reflect.Uint64:
			v.SetUint(uint64(n))
		case reflect.Float64:
			v.SetFloat(float64(n) + 0.5)
		case reflect.Bool:
			v.SetBool(true)
		default:
			t.Fatalf("%s: this test has no value for a field of kind %s", path, v.Kind())
		}
	})
	sent.V, sent.Type = ProtoVersion, MsgSubmit // the two fields the decoder constrains

	frame, err := AppendMessageBinary(nil, sent)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessageBinary(frame)
	if err != nil {
		t.Fatal(err)
	}
	back := leaves(&got)
	for path, v := range leaves(&sent) {
		if back[path] != v {
			t.Errorf("%s: sent %v, came back %v", path, v, back[path])
		}
	}
	if !reflect.DeepEqual(sent, got) {
		t.Errorf("round trip changed the message:\n sent %+v\n got  %+v", sent, got)
	}
}

// TestStatsFieldsMatchDeclaration pins the statsFields schedule to
// StatsInfo's declaration order, with none missing: an older peer
// decodes the prefix it knows, so order is part of the protocol.
func TestStatsFieldsMatchDeclaration(t *testing.T) {
	var s StatsInfo
	fields, v := statsFields(&s), reflect.ValueOf(&s).Elem()
	if len(fields) != v.NumField() {
		t.Fatalf("statsFields lists %d fields, StatsInfo declares %d (new fields append at the end, with a ProtoVersion bump)",
			len(fields), v.NumField())
	}
	for i, p := range fields {
		if p != v.Field(i).Addr().Interface() {
			t.Errorf("statsFields[%d] is not &StatsInfo.%s: the schedule must follow declaration order", i, v.Type().Field(i).Name)
		}
	}
}

// TestEveryMessageTypeHasOneCode requires each Msg* constant of
// proto.go to own exactly one binary type code — present in msgCodes,
// not the reserved 0, shared with no other type — and msgCodes to hold
// nothing else.
func TestEveryMessageTypeHasOneCode(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "proto.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	owner, consts := map[byte]string{}, 0
	ast.Inspect(file, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || len(vs.Values) != 1 || !strings.HasPrefix(vs.Names[0].Name, "Msg") {
			return true
		}
		typ, _ := strconv.Unquote(vs.Values[0].(*ast.BasicLit).Value)
		consts++
		switch code, ok := msgCodes[typ]; {
		case !ok:
			t.Errorf("message type %q has no binary code in msgCodes", typ)
		case code == 0:
			t.Errorf("message type %q has binary code 0, which is reserved as invalid", typ)
		case owner[code] != "":
			t.Errorf("message types %q and %q share binary code %d", owner[code], typ, code)
		default:
			owner[code] = typ
		}
		return true
	})
	if consts == 0 || consts != len(msgCodes) {
		t.Errorf("msgCodes has %d entries for %d Msg* constants", len(msgCodes), consts)
	}
}

// TestEveryMessageTypeInBothGoldens requires every coded type in both
// fixture lists — which TestGoldenMessages and TestGoldenMessagesBinary
// pin to the files byte for byte — so the decode goldens cover the
// whole protocol.
func TestEveryMessageTypeInBothGoldens(t *testing.T) {
	for _, fixture := range []string{"bin", "jsonl"} {
		seen := map[string]bool{}
		for _, m := range goldenFor(fixture) {
			seen[m.Type] = true
		}
		for typ := range msgCodes {
			if !seen[typ] {
				t.Errorf("message type %q is missing from the %s golden list (goldenMessages)", typ, fixture)
			}
		}
	}
}
