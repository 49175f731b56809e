package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

type goldenMessage struct {
	only string // "", "bin" or "jsonl"
	m    Message
}

// goldenMessages is the one list both golden fixtures render, in
// protocol order: every message type, with every field exercised
// somewhere. only restricts an entry to one fixture — the two files
// predate the shared list and differ in how much of a message they
// populate (messages.bin carries the reserved Proto slot and the
// fuller prepare/run/statsreply; messages.jsonl a second run/result
// pair) — and "" puts it in both. TestEveryMessageTypeInBothGoldens
// needs every type in both files, so a new type is one entry here.
func goldenMessages() []goldenMessage {
	f := false
	return []goldenMessage{
		{"bin", Message{Type: MsgRegister, Name: "node1", Proto: ProtoBinary}},
		{"jsonl", Message{Type: MsgRegister, Name: "node1"}},
		{"bin", Message{Type: MsgWelcome, Worker: 3, HeartbeatNanos: 1000000000, Proto: ProtoBinary}},
		{"jsonl", Message{Type: MsgWelcome, Worker: 3, HeartbeatNanos: 1000000000}},
		{"", Message{Type: MsgHeartbeat, Worker: 3}},
		{"bin", Message{Type: MsgPrepare, Config: 7, Ranks: 6, RankLo: 2, RankHi: 4, Spec: &AppSpec{
			Workers:  6,
			Nodes:    2,
			Validate: &f,
			Graphs: []GraphSpec{{
				Steps: 20, Width: 6, Type: "stencil_1d_periodic",
				KernelSpec: KernelSpec{
					Kernel: "compute_bound", Iterations: 64,
					SpanBytes: 4096, WaitNanos: 250, Imbalance: 1.5,
				},
				Output: 128, Radix: 3, Period: 5, Fraction: 0.25,
				Scratch: 1 << 20, Seed: 42,
			}},
		}}},
		{"jsonl", Message{Type: MsgPrepare, Config: 7, Ranks: 6, RankLo: 2, RankHi: 4, Spec: &AppSpec{
			Workers:  6,
			Validate: &f,
			Graphs: []GraphSpec{{
				Steps: 20, Width: 6, Type: "stencil_1d_periodic",
				KernelSpec: KernelSpec{Kernel: "compute_bound", Iterations: 64}, Output: 128,
			}},
		}}},
		{"", Message{Type: MsgPrepared, Config: 7, Addr: "127.0.0.1:40721"}},
		{"", Message{Type: MsgConnect, Config: 7, Addrs: []string{"a:1", "a:1", "b:2", "b:2", "c:3", "c:3"}}},
		{"", Message{Type: MsgReady, Config: 7}},
		{"bin", Message{Type: MsgRun, Config: 7, Job: 9, Attempt: 1, Kernels: []KernelSpec{
			{Kernel: "compute_bound", Iterations: 64},
			{Kernel: "busy_wait", WaitNanos: 1500, Imbalance: 0.5, SpanBytes: 64},
		}}},
		{"bin", Message{Type: MsgResult, Config: 7, Job: 9, Attempt: 1, ElapsedNanos: 1234567}},
		{"jsonl", Message{Type: MsgRun, Config: 7, Job: 9, Kernels: []KernelSpec{{Kernel: "compute_bound", Iterations: 64}}}},
		{"jsonl", Message{Type: MsgResult, Config: 7, Job: 9, ElapsedNanos: 1234567}},
		{"jsonl", Message{Type: MsgRun, Config: 8, Job: 9, Attempt: 1, Kernels: []KernelSpec{{Kernel: "compute_bound", Iterations: 64}}}},
		{"jsonl", Message{Type: MsgResult, Config: 8, Job: 9, Attempt: 1, ElapsedNanos: 1234567}},
		{"", Message{Type: MsgRelease, Config: 7}},
		{"", Message{Type: MsgSubmit, Spec: &AppSpec{Graphs: []GraphSpec{{Steps: 2, Width: 2, Type: "trivial"}}}}},
		{"bin", Message{Type: MsgAccepted, Job: 9, Proto: ProtoBinary}},
		{"jsonl", Message{Type: MsgAccepted, Job: 9}},
		{"", Message{Type: MsgRejected, Job: 11, Err: "queue full (depth 64)"}},
		{"", Message{Type: MsgCancel, Job: 9}},
		{"", Message{Type: MsgDone, Job: 9, ElapsedNanos: 1234567, Workers: 6}},
		{"", Message{Type: MsgDone, Job: 10, Err: `worker "node2" died`}},
		{"", Message{Type: MsgStats, Job: 21}},
		{"bin", Message{Type: MsgStatsRply, Job: 21, Stats: &StatsInfo{
			Workers: 3, ConfigsBuilt: 2, ConfigsReused: 40,
			JobsRun: 42, JobsFailed: 1, JobsInFlight: 5, JobsRunning: 2,
			JobsRetried: 1, JobsRejected: 7, JobsCancelled: 1,
			QueueLen: 3, QueueCap: 64, Concurrency: 4, MaxAttempts: 3,
			ConfigsReprovisioned: 2, ConfigsEvicted: 1, WorkersDraining: 1,
			ConfigCacheHits: 40, ConfigCacheMisses: 2,
			MaxHeartbeatAgeNanos: 250_000_000,
			LatencyP50Nanos:      5_000_000, LatencyP95Nanos: 25_000_000, LatencyP99Nanos: 100_000_000,
		}}},
		{"jsonl", Message{Type: MsgStatsRply, Job: 21, Stats: &StatsInfo{
			Workers: 3, JobsRun: 42, JobsRejected: 7,
			QueueLen: 3, QueueCap: 64, Concurrency: 4, MaxAttempts: 3,
			ConfigsReprovisioned: 2, ConfigsEvicted: 1, WorkersDraining: 1,
			ConfigCacheHits: 40, ConfigCacheMisses: 2,
			MaxHeartbeatAgeNanos: 250_000_000,
			LatencyP50Nanos:      5_000_000, LatencyP95Nanos: 25_000_000, LatencyP99Nanos: 100_000_000,
		}}},
		{"", Message{Type: MsgDrain, Worker: 3, Name: "node1"}},
		{"", Message{Type: MsgDrained, Worker: 3}},
	}
}

// goldenFor returns the messages of one fixture ("bin" or "jsonl").
func goldenFor(fixture string) []Message {
	var msgs []Message
	for _, g := range goldenMessages() {
		if g.only == "" || g.only == fixture {
			msgs = append(msgs, g.m)
		}
	}
	return msgs
}

// binaryTestMessages is the messages.bin list, shared by the
// round-trip, truncation and fuzz tests.
func binaryTestMessages() []Message { return goldenFor("bin") }

// TestBinaryRoundTrip pins decode(encode(m)) == m for every message
// type with every field populated somewhere.
func TestBinaryRoundTrip(t *testing.T) {
	for _, m := range binaryTestMessages() {
		m.V = ProtoVersion
		frame, err := AppendMessageBinary(nil, m)
		if err != nil {
			t.Fatalf("%s: encode: %v", m.Type, err)
		}
		got, err := DecodeMessageBinary(frame)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Type, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%s round trip changed message:\n sent %+v\n got  %+v", m.Type, m, got)
		}
	}
}

// TestBinaryTruncation feeds every strict prefix of a valid frame to
// the decoder: all must fail cleanly, none may panic or succeed.
func TestBinaryTruncation(t *testing.T) {
	for _, m := range binaryTestMessages() {
		m.V = ProtoVersion
		frame, err := AppendMessageBinary(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(frame); cut++ {
			if _, err := DecodeMessageBinary(frame[:cut]); err == nil {
				t.Fatalf("%s: decode of %d/%d-byte prefix succeeded", m.Type, cut, len(frame))
			}
		}
		// And with the length prefix intact but the body truncated on
		// the stream: the reader must error, not block or misparse.
		for cut := 1; cut < len(frame); cut++ {
			if _, err := ReadMessageFrom(bufio.NewReader(bytes.NewReader(frame[:cut]))); err == nil {
				t.Fatalf("%s: stream read of %d/%d-byte prefix succeeded", m.Type, cut, len(frame))
			}
		}
	}
}

// TestBinaryHostileListLength pins the list-length bound to what the
// body could hold: a submit whose graph count claims 2^20 elements over
// 1 MiB of zeros (which would decode as ~37k empty graphs before
// running out) is refused at the count, before the decoder allocates
// the 128 MiB of GraphSpec the count asks for.
func TestBinaryHostileListLength(t *testing.T) {
	body := binary.AppendUvarint(nil, ProtoVersion)
	body = append(body, msgCodes[MsgSubmit])
	body = append(body, make([]byte, 10)...) // Proto … RankHi, all zero
	body = append(body, 1)                   // Spec present
	body = binary.AppendUvarint(body, 1<<20)
	body = append(body, make([]byte, 1<<20)...)
	frame := binary.AppendUvarint([]byte{BinMagic}, uint64(len(body)))
	frame = append(frame, body...)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeMessageBinary(frame)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "list length") {
		t.Errorf("hostile count not refused as a list length: %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("decoder allocated %d bytes before refusing a 1 MiB body", got)
	}
}

// nonCanonicalFrames are valid frames but for one presence or
// optional-bool byte the encoder never writes. Offsets count back from
// the frame's end, where the schedule is one-byte zero fields: after an
// empty spec's presence byte come graphs(0) workers nodes validate,
// then kernels(0) addr addrs(0) elapsed workers err stats-presence.
func nonCanonicalFrames() map[string][]byte {
	tamper := func(m Message, fromEnd int, c byte) []byte {
		frame, _ := AppendMessageBinary(nil, m)
		frame[len(frame)-fromEnd] = c
		return frame
	}
	submit := Message{Type: MsgSubmit, Spec: &AppSpec{}}
	reply := Message{Type: MsgStatsRply, Stats: &StatsInfo{}}
	return map[string][]byte{
		"spec presence 0xFF": tamper(submit, 12, 0xFF),
		"validate byte 3":    tamper(submit, 8, 3),
		"stats presence 2":   tamper(reply, 1+len(statsFields(&StatsInfo{})), 2),
	}
}

// TestBinaryRejectsNonCanonicalBytes holds the decoder to the header's
// "every malformed input is an error": such bytes are refused, not read
// as "present" or "unset".
func TestBinaryRejectsNonCanonicalBytes(t *testing.T) {
	for name, frame := range nonCanonicalFrames() {
		if m, err := DecodeMessageBinary(frame); err == nil || !strings.Contains(err.Error(), "flag byte") {
			t.Errorf("%s: accepted as %+v (err %v)", name, m, err)
		}
	}
}

// TestBinaryOversizedFrame pins the max-frame guard: a corrupt length
// prefix beyond MaxControlFrame is rejected before any allocation of
// that size can happen.
func TestBinaryOversizedFrame(t *testing.T) {
	frame := []byte{BinMagic}
	frame = binary.AppendUvarint(frame, MaxControlFrame+1)
	if _, err := DecodeMessageBinary(frame); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("oversized frame not rejected: %v", err)
	}
	if _, err := ReadMessageFrom(bufio.NewReader(bytes.NewReader(frame))); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("oversized stream frame not rejected: %v", err)
	}

	// A plausible length prefix hiding an oversized string must also
	// fail: list and string lengths are checked against the remaining
	// body, not trusted.
	lie := []byte{BinMagic}
	body := binary.AppendUvarint(nil, ProtoVersion)
	body = append(body, msgCodes[MsgRegister])
	body = binary.AppendUvarint(body, 1<<40) // proto string "length"
	lie = binary.AppendUvarint(lie, uint64(len(body)))
	lie = append(lie, body...)
	if _, err := DecodeMessageBinary(lie); err == nil {
		t.Error("lying string length not rejected")
	}
}

// TestBinaryVersionGate rejects frames from a newer version instead of
// misreading them.
func TestBinaryVersionGate(t *testing.T) {
	m := Message{V: ProtoVersion + 1, Type: MsgHeartbeat}
	frame, err := AppendMessageBinary(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMessageBinary(frame); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("accepted binary message from the future: %v", err)
	}
}

// TestBinaryRejectsUnknownType pins that a zeroed or unknown type code
// is an error, not a silent misparse.
func TestBinaryRejectsUnknownType(t *testing.T) {
	body := binary.AppendUvarint(nil, ProtoVersion)
	body = append(body, 0) // invalid code
	frame := []byte{BinMagic}
	frame = binary.AppendUvarint(frame, uint64(len(body)))
	frame = append(frame, body...)
	if _, err := DecodeMessageBinary(frame); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("unknown type code not rejected: %v", err)
	}
	if _, err := AppendMessageBinary(nil, Message{Type: "no_such_type"}); err == nil {
		t.Error("encoder accepted unknown message type")
	}
}

// TestBinaryTrailingBytes rejects frames whose body is longer than the
// field schedule: trailing garbage means a framing bug, and accepting
// it would let two peers silently desynchronize.
func TestBinaryTrailingBytes(t *testing.T) {
	frame, err := AppendMessageBinary(nil, Message{V: ProtoVersion, Type: MsgHeartbeat, Worker: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild with one extra body byte and a matching length prefix.
	bodyLen, n := binary.Uvarint(frame[1:])
	body := append([]byte(nil), frame[1+n:]...)
	if uint64(len(body)) != bodyLen {
		t.Fatal("test framing confusion")
	}
	body = append(body, 0xEE)
	tampered := []byte{BinMagic}
	tampered = binary.AppendUvarint(tampered, uint64(len(body)))
	tampered = append(tampered, body...)
	if _, err := DecodeMessageBinary(tampered); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing bytes not rejected: %v", err)
	}
}
