package wire

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

// benchMessage returns a control message representative of the named
// hot-path shape: "heartbeat" is the highest-rate tiny message,
// "result" a typical reply, "submit" the spec-bearing worst case.
func benchMessage(shape string) Message {
	switch shape {
	case "heartbeat":
		return Message{Type: MsgHeartbeat, Worker: 17}
	case "result":
		return Message{Type: MsgResult, Job: 12345, Worker: 17, Attempt: 1, ElapsedNanos: 987654321}
	case "submit":
		return Message{Type: MsgSubmit, Spec: &AppSpec{
			Workers: 64,
			Graphs: []GraphSpec{{
				Steps: 1000, Width: 256, Type: "stencil_1d_periodic",
				KernelSpec: KernelSpec{Kernel: "compute_bound", Iterations: 8192}, Output: 65536,
			}, {
				Steps: 1000, Width: 128, Type: "fft",
				KernelSpec: KernelSpec{Kernel: "memory_bound", SpanBytes: 1 << 20, Imbalance: 0.25},
				Output:     1024, Fraction: 0.5,
			}},
		}}
	}
	panic("unknown shape " + shape)
}

var benchShapes = []string{"heartbeat", "result", "submit"}

// BenchmarkWireEncodeBinary measures the per-message cost of the
// control frame on the write path the cluster actually uses
// (WriteMessageBinary to a writer).
// bench/ twin: wire.encode_ns; kept as the CI tripwire, since
// hosted runners cannot run the reference-clocked bench/.
func BenchmarkWireEncodeBinary(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(shape, func(b *testing.B) {
			m := benchMessage(shape)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := WriteMessageBinary(io.Discard, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireDecodeBinary goes through ReadMessageFrom, the reader
// every cluster connection uses, so stream framing is part of the
// measured cost.
// bench/ twin: wire.decode_ns; kept as the CI tripwire, since
// hosted runners cannot run the reference-clocked bench/.
func BenchmarkWireDecodeBinary(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(shape, func(b *testing.B) {
			var buf bytes.Buffer
			if err := WriteMessageBinary(&buf, benchMessage(shape)); err != nil {
				b.Fatal(err)
			}
			frame := buf.Bytes()
			rd := bytes.NewReader(frame)
			br := bufio.NewReader(rd)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(frame)
				br.Reset(rd)
				if _, err := ReadMessageFrom(br); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
