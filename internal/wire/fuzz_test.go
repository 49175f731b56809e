package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzAppSpecRoundTrip checks, for any input the decoder accepts, that
// the normalized form (ToApp → FromApp, which fills defaults) is a
// fixed point of both the app round trip and the JSON round trip. The
// spec schema travels between processes and versions in cluster mode,
// so "decode(encode(x)) == x" must hold for everything we emit.
func FuzzAppSpecRoundTrip(f *testing.F) {
	seeds := []string{
		`{"graphs":[{"steps":4,"width":4,"type":"stencil_1d"}]}`,
		`{"graphs":[{"steps":10,"width":8,"type":"fft","kernel":"compute_bound","iterations":64}],"workers":4}`,
		`{"graphs":[{"steps":3,"width":6,"type":"spread","radix":2,"period":5,"seed":9}],"validate":false}`,
		`{"graphs":[{"steps":2,"width":2,"type":"trivial","kernel":"busy_wait","wait_nanos":1000}],"nodes":2}`,
		`{"graphs":[{"steps":5,"width":3,"type":"random_nearest","radix":2,"fraction":0.5},` +
			`{"steps":5,"width":4,"type":"dom","kernel":"memory_bound","iterations":8,"span_bytes":256,"scratch_bytes":4096}]}`,
		`{"graphs":[]}`,
		`{"graphs":[{"steps":-1,"width":4,"type":"stencil_1d"}]}`,
		`not json at all`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // rejected input: nothing to round-trip
		}
		for _, g := range spec.Graphs {
			// Bound the graph size so the fuzzer explores the schema,
			// not the allocator.
			if g.Steps > 1<<12 || g.Width > 1<<12 || g.Scratch > 1<<20 {
				return
			}
		}
		app, err := spec.ToApp()
		if err != nil {
			return // validly rejected configuration
		}
		norm := FromApp(app)

		// Normalization must be a fixed point: a second trip through
		// the app changes nothing.
		app2, err := norm.ToApp()
		if err != nil {
			t.Fatalf("normalized spec rejected: %v\nspec: %+v", err, norm)
		}
		if norm2 := FromApp(app2); !reflect.DeepEqual(norm, norm2) {
			t.Fatalf("normalization not a fixed point:\n first: %+v\nsecond: %+v", norm, norm2)
		}
		if app2.TotalTasks() != app.TotalTasks() || app2.TotalDependencies() != app.TotalDependencies() {
			t.Fatalf("round trip changed graph structure: %d/%d tasks, %d/%d deps",
				app.TotalTasks(), app2.TotalTasks(), app.TotalDependencies(), app2.TotalDependencies())
		}

		// And the JSON codec must preserve the normalized form exactly.
		var buf strings.Builder
		if err := Encode(&buf, norm); err != nil {
			t.Fatalf("encode: %v", err)
		}
		back, err := Decode(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(norm, back) {
			t.Fatalf("JSON round trip changed spec:\n  out: %+v\n back: %+v", norm, back)
		}
	})
}

// FuzzMessageBinary drives the binary decoder with arbitrary bytes: it
// must never panic, and anything it accepts must re-encode to a frame
// that decodes back to the same message (decode∘encode fixed point).
func FuzzMessageBinary(f *testing.F) {
	for _, m := range binaryTestMessages() {
		frame, err := AppendMessageBinary(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		// Seed mutations the mutator finds slowly on its own: truncated
		// and bit-flipped variants of every message type.
		f.Add(frame[:len(frame)/2])
		flipped := append([]byte(nil), frame...)
		flipped[len(flipped)-1] ^= 0x80
		f.Add(flipped)
	}
	f.Add([]byte{BinMagic, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	for _, frame := range nonCanonicalFrames() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessageBinary(data)
		if err != nil {
			return // rejected input: nothing to round-trip
		}
		if hasNaN(m) {
			// The fixed 8-byte encoding preserves NaN bits exactly, but
			// reflect.DeepEqual cannot compare them (NaN != NaN).
			return
		}
		frame, err := AppendMessageBinary(nil, m)
		if err != nil {
			t.Fatalf("accepted message failed to re-encode: %v\n%+v", err, m)
		}
		back, err := DecodeMessageBinary(frame)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v\n%+v", err, m)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("binary round trip changed message:\n first %+v\n again %+v", m, back)
		}
	})
}

// FuzzControlStream drives ReadMessageFrom — what every control
// connection reads through — with an arbitrary byte stream: each call
// yields a message or an error, never a panic or a hang, and a message
// consumes exactly the bytes of one frame — what DecodeMessageBinary,
// which bounds the body by MaxControlFrame and demands the declared
// length to the byte, accepts as that same message.
func FuzzControlStream(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "messages.bin"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for cut := 0; cut < len(golden); cut++ {
		f.Add(golden[:cut])
	}
	f.Add([]byte(`{"v":6,"type":"submit","spec":{"graphs":[{"steps":2,"width":2,"type":"trivial"}]}}` + "\n"))
	f.Add(binary.AppendUvarint([]byte{BinMagic}, MaxControlFrame+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		br := bufio.NewReader(rd)
		consumed := func() int { return len(data) - rd.Len() - br.Buffered() }
		for {
			start := consumed()
			m, err := ReadMessageFrom(br)
			if err != nil {
				return // the connection owner tears down here
			}
			whole, err := DecodeMessageBinary(data[start:consumed()])
			if err != nil {
				t.Fatalf("stream reader accepted a frame the frame decoder rejects: %v", err)
			}
			if !hasNaN(m) && !reflect.DeepEqual(m, whole) {
				t.Fatalf("stream and frame decode disagree:\n stream %+v\n frame  %+v", m, whole)
			}
		}
	})
}

// hasNaN reports whether any float field of the message is NaN — such
// messages round-trip bit-exactly but cannot be compared with
// reflect.DeepEqual.
func hasNaN(m Message) bool {
	for _, k := range m.Kernels {
		if math.IsNaN(k.Imbalance) {
			return true
		}
	}
	if m.Spec != nil {
		for _, g := range m.Spec.Graphs {
			if math.IsNaN(g.Fraction) || math.IsNaN(g.Imbalance) {
				return true
			}
		}
	}
	return false
}
