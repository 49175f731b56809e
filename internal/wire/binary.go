package wire

// Binary framing for the cluster control protocol: the one format that
// travels on a control connection. JSON renders the same Message for
// the messages.jsonl golden and for spec files, never for the wire. At
// vanishing task granularity the per-message cost of the control plane
// is system overhead of exactly the kind Task Bench exists to measure,
// so the codec is a fixed field schedule with no tags, no reflection
// and no allocation on encode.
//
// Frame layout (everything little-endian; varints are encoding/binary
// Uvarint/Varint):
//
//	0xB1 | uvarint bodyLen | body
//
// The body is:
//
//	uvarint version | byte typeCode | fields of Message in struct order
//
// Strings are uvarint length + bytes; float64s are 8 fixed bytes of
// IEEE-754 bits; an optional struct (*AppSpec, *StatsInfo) is a
// presence byte, 0 or 1, followed when 1 by the struct's own fixed
// schedule; the optional bool is one byte, 0 unset, 1 false, 2 true. A
// GraphSpec's kernel fields are the KernelSpec schedule, the same one
// a run's Kernels list uses. Zero fields cost one byte each, so a
// heartbeat is ~20 bytes. Encoders append into free-listed buffers
// (sync.Pool) and write one frame per syscall; decode allocates only
// the strings and slices of the resulting Message.
//
// Every malformed input is an error, and the connection owner tears
// the session down on it: a first byte other than 0xB1, a body beyond
// MaxControlFrame, a string length exceeding the remaining body, a
// list length exceeding what the remaining body could hold at each
// element's minimum encoded size (so a corrupt or hostile prefix cannot
// drive an allocation larger than a small multiple of the frame), a
// presence or optional-bool byte the encoder never writes, a newer
// version, an unknown type code, and bytes left over after the
// schedule.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
)

// BinMagic opens every control frame.
const BinMagic = 0xB1

// MaxControlFrame bounds one binary control message's body. The
// largest legitimate messages (a submit carrying a many-graph spec, a
// connect carrying thousands of addresses) are a few hundred KiB; a
// length prefix beyond this is corruption, and rejecting it keeps a
// bad frame from driving an unbounded allocation.
const MaxControlFrame = 16 << 20

// ProtoBinary is the one value Message.Proto ever held. Like the field
// it is reserved: nothing in this module reads it.
const ProtoBinary = "binary"

// Message type codes of the binary codec, in protocol order. Code 0 is
// deliberately invalid so a zeroed frame cannot decode as a register.
var msgCodes = map[string]byte{
	MsgRegister:  1,
	MsgWelcome:   2,
	MsgHeartbeat: 3,
	MsgPrepare:   4,
	MsgPrepared:  5,
	MsgConnect:   6,
	MsgReady:     7,
	MsgRun:       8,
	MsgResult:    9,
	MsgRelease:   10,
	MsgSubmit:    11,
	MsgAccepted:  12,
	MsgRejected:  13,
	MsgCancel:    14,
	MsgDone:      15,
	MsgStats:     16,
	MsgStatsRply: 17,
	MsgDrain:     18,
	MsgDrained:   19,
}

var msgNames = func() map[byte]string {
	names := make(map[byte]string, len(msgCodes))
	for name, code := range msgCodes {
		names[code] = name
	}
	return names
}()

// binBufs recycles encode buffers: steady-state control traffic
// (heartbeats, run/result exchanges of a sweep) encodes into warm
// buffers instead of allocating per message.
var binBufs = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

const maxFrameHeader = 1 + binary.MaxVarintLen64 // magic + bodyLen

// AppendMessageBinary appends one complete binary frame (magic, length
// prefix, body) for m to dst and returns the extended slice.
func AppendMessageBinary(dst []byte, m Message) ([]byte, error) {
	if _, ok := msgCodes[m.Type]; !ok {
		return dst, fmt.Errorf("wire: message type %q has no binary code", m.Type)
	}
	start := len(dst)
	// Reserve a maximal header, encode the body after it, then write
	// the real header right-aligned against the body — one buffer, no
	// second pass over the payload.
	for i := 0; i < maxFrameHeader; i++ {
		dst = append(dst, 0)
	}
	dst = appendMessageBody(dst, m)
	body := len(dst) - start - maxFrameHeader
	hdrLen := 1 + uvarintLen(uint64(body))
	hdrStart := start + maxFrameHeader - hdrLen
	dst[hdrStart] = BinMagic
	binary.PutUvarint(dst[hdrStart+1:start+maxFrameHeader], uint64(body))
	return append(dst[:start], dst[hdrStart:]...), nil
}

// WriteMessageBinary frames m onto w as one binary frame in a single
// Write, drawing the encode buffer from a free list. Callers serialize
// concurrent writers.
func WriteMessageBinary(w io.Writer, m Message) error {
	m.V = ProtoVersion
	bufp := binBufs.Get().(*[]byte)
	buf, err := AppendMessageBinary((*bufp)[:0], m)
	if err == nil {
		_, err = w.Write(buf)
	}
	*bufp = buf[:0]
	binBufs.Put(bufp)
	return err
}

// DecodeMessageBinary decodes one complete binary frame (magic, length
// prefix, body). It is the symmetric counterpart of
// AppendMessageBinary, used by tests and fuzzers; connection readers
// use ReadMessageFrom, which frames incrementally off the stream.
func DecodeMessageBinary(frame []byte) (Message, error) {
	if len(frame) == 0 || frame[0] != BinMagic {
		return Message{}, fmt.Errorf("wire: not a binary frame")
	}
	bodyLen, n := binary.Uvarint(frame[1:])
	if n <= 0 {
		return Message{}, fmt.Errorf("wire: bad frame length prefix")
	}
	if bodyLen > MaxControlFrame {
		return Message{}, fmt.Errorf("wire: frame body %d bytes exceeds limit %d", bodyLen, MaxControlFrame)
	}
	body := frame[1+n:]
	if uint64(len(body)) != bodyLen {
		return Message{}, fmt.Errorf("wire: frame declares %d body bytes, has %d", bodyLen, len(body))
	}
	return decodeMessageBody(body)
}

// ReadMessageFrom reads the next control frame from br. Both sides of
// every control connection read through this.
func ReadMessageFrom(br *bufio.Reader) (Message, error) {
	c, err := br.ReadByte()
	if err != nil {
		return Message{}, err
	}
	if c != BinMagic {
		return Message{}, fmt.Errorf("wire: control frame opens with byte 0x%02x, want 0x%02x", c, BinMagic)
	}
	bodyLen, err := binary.ReadUvarint(br)
	if err != nil {
		return Message{}, fmt.Errorf("wire: frame length: %w", err)
	}
	if bodyLen > MaxControlFrame {
		return Message{}, fmt.Errorf("wire: frame body %d bytes exceeds limit %d", bodyLen, MaxControlFrame)
	}
	bufp := binBufs.Get().(*[]byte)
	buf := *bufp
	if uint64(cap(buf)) < bodyLen {
		buf = make([]byte, bodyLen)
	}
	buf = buf[:bodyLen]
	_, err = io.ReadFull(br, buf)
	var m Message
	if err == nil {
		// Decoded strings and slices are copies, so the buffer can
		// recycle immediately.
		m, err = decodeMessageBody(buf)
	}
	*bufp = buf[:0]
	binBufs.Put(bufp)
	if err != nil {
		return Message{}, err
	}
	return m, nil
}

// --- body encoding --------------------------------------------------

// appendMessageBody serializes every Message field; Type travels as
// its binary code (callers have already checked the table has one).
func appendMessageBody(b []byte, m Message) []byte {
	b = binary.AppendUvarint(b, uint64(m.V))
	b = append(b, msgCodes[m.Type])
	b = appendString(b, m.Proto)
	b = appendString(b, m.Name)
	b = binary.AppendVarint(b, m.Worker)
	b = binary.AppendVarint(b, m.HeartbeatNanos)
	b = binary.AppendUvarint(b, m.Config)
	b = binary.AppendUvarint(b, m.Job)
	b = binary.AppendVarint(b, int64(m.Attempt))
	b = binary.AppendVarint(b, int64(m.Ranks))
	b = binary.AppendVarint(b, int64(m.RankLo))
	b = binary.AppendVarint(b, int64(m.RankHi))
	if m.Spec == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = appendSpec(b, *m.Spec)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Kernels)))
	for _, k := range m.Kernels {
		b = appendKernel(b, k)
	}
	b = appendString(b, m.Addr)
	b = binary.AppendUvarint(b, uint64(len(m.Addrs)))
	for _, a := range m.Addrs {
		b = appendString(b, a)
	}
	b = binary.AppendVarint(b, m.ElapsedNanos)
	b = binary.AppendVarint(b, int64(m.Workers))
	b = appendString(b, m.Err)
	if m.Stats == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = appendStats(b, *m.Stats)
	}
	return b
}

func appendStats(b []byte, s StatsInfo) []byte {
	for _, v := range statsFields(&s) {
		b = binary.AppendVarint(b, int64(*v))
	}
	return b
}

// statsFields is the binary field schedule of StatsInfo, shared by the
// encoder and decoder so the two cannot drift. New fields append at
// the end only, alongside a ProtoVersion bump.
func statsFields(s *StatsInfo) []*int {
	return []*int{
		&s.Workers, &s.ConfigsBuilt, &s.ConfigsReused,
		&s.JobsRun, &s.JobsFailed, &s.JobsInFlight, &s.JobsRunning,
		&s.JobsRetried, &s.JobsRejected, &s.JobsCancelled,
		&s.QueueLen, &s.QueueCap, &s.Concurrency, &s.MaxAttempts,
		&s.ConfigsReprovisioned, &s.ConfigsEvicted, &s.WorkersDraining,
		&s.ConfigCacheHits, &s.ConfigCacheMisses, &s.MaxHeartbeatAgeNanos,
		&s.LatencyP50Nanos, &s.LatencyP95Nanos, &s.LatencyP99Nanos,
	}
}

func appendSpec(b []byte, spec AppSpec) []byte {
	b = binary.AppendUvarint(b, uint64(len(spec.Graphs)))
	for _, g := range spec.Graphs {
		b = binary.AppendVarint(b, int64(g.Steps))
		b = binary.AppendVarint(b, int64(g.Width))
		b = appendString(b, g.Type)
		b = binary.AppendVarint(b, int64(g.Radix))
		b = binary.AppendVarint(b, int64(g.Period))
		b = appendFloat(b, g.Fraction)
		b = appendKernel(b, g.KernelSpec)
		b = binary.AppendVarint(b, int64(g.Output))
		b = binary.AppendVarint(b, g.Scratch)
		b = binary.AppendUvarint(b, g.Seed)
	}
	b = binary.AppendVarint(b, int64(spec.Workers))
	b = binary.AppendVarint(b, int64(spec.Nodes))
	switch {
	case spec.Validate == nil:
		b = append(b, 0)
	case *spec.Validate:
		b = append(b, 2)
	default:
		b = append(b, 1)
	}
	return b
}

func appendKernel(b []byte, k KernelSpec) []byte {
	b = appendString(b, k.Kernel)
	b = binary.AppendVarint(b, k.Iterations)
	b = binary.AppendVarint(b, k.SpanBytes)
	b = binary.AppendVarint(b, k.WaitNanos)
	b = appendFloat(b, k.Imbalance)
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// --- body decoding --------------------------------------------------

// binReader is a bounds-checked cursor over one frame body. Every read
// past the end sets err once and makes the remaining reads return zero
// values, so decoders can run the whole field schedule and check err
// at the end instead of threading it through every call.
type binReader struct {
	b   []byte
	err error
}

func (r *binReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *binReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *binReader) int() int { return int(r.varint()) }

func (r *binReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail("truncated frame")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *binReader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)) {
		r.fail("string length %d exceeds remaining %d bytes", n, len(r.b))
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *binReader) float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail("truncated float")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return f
}

// flag reads a one-byte enumeration and rejects values the encoder
// never writes: a presence byte is 0 or 1 (max 1), the optional bool 0
// unset, 1 false or 2 true (max 2).
func (r *binReader) flag(max byte) byte {
	c := r.byte()
	if c > max {
		r.fail("flag byte %d, want at most %d", c, max)
		return 0
	}
	return c
}

// Minimum encoded sizes of the list elements, the bound count holds a
// declared length to: every varint and string length is at least one
// byte and a float is eight, so a kernel is 4×1+8, a graph 8×1+8 plus
// its kernel, and an address one length byte.
const (
	minKernelBytes = 12
	minGraphBytes  = 16 + minKernelBytes
	minAddrBytes   = 1
)

// count reads a list length and rejects lengths that cannot fit in the
// remaining body (each element costs at least minElem bytes), so a
// corrupt count cannot make() more than the frame could ever fill.
func (r *binReader) count(minElem int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)/minElem) {
		r.fail("list length %d exceeds remaining %d bytes", n, len(r.b))
		return 0
	}
	return int(n)
}

func decodeMessageBody(body []byte) (Message, error) {
	r := &binReader{b: body}
	var m Message
	m.V = int(r.uvarint())
	if r.err == nil && m.V > ProtoVersion {
		return Message{}, fmt.Errorf("wire: message version %d newer than supported %d", m.V, ProtoVersion)
	}
	code := r.byte()
	if r.err == nil {
		name, ok := msgNames[code]
		if !ok {
			return Message{}, fmt.Errorf("wire: unknown binary message code %d", code)
		}
		m.Type = name
	}
	m.Proto = r.string()
	m.Name = r.string()
	m.Worker = r.varint()
	m.HeartbeatNanos = r.varint()
	m.Config = r.uvarint()
	m.Job = r.uvarint()
	m.Attempt = r.int()
	m.Ranks = r.int()
	m.RankLo = r.int()
	m.RankHi = r.int()
	if r.flag(1) == 1 {
		spec := decodeSpec(r)
		m.Spec = &spec
	}
	if n := r.count(minKernelBytes); n > 0 {
		m.Kernels = make([]KernelSpec, n)
		for i := range m.Kernels {
			m.Kernels[i] = decodeKernel(r)
		}
	}
	m.Addr = r.string()
	if n := r.count(minAddrBytes); n > 0 {
		m.Addrs = make([]string, n)
		for i := range m.Addrs {
			m.Addrs[i] = r.string()
		}
	}
	m.ElapsedNanos = r.varint()
	m.Workers = r.int()
	m.Err = r.string()
	if r.flag(1) == 1 {
		var s StatsInfo
		for _, v := range statsFields(&s) {
			*v = r.int()
		}
		m.Stats = &s
	}
	if r.err != nil {
		return Message{}, r.err
	}
	if len(r.b) != 0 {
		return Message{}, fmt.Errorf("wire: %d trailing bytes after message body", len(r.b))
	}
	return m, nil
}

func decodeSpec(r *binReader) AppSpec {
	var spec AppSpec
	if n := r.count(minGraphBytes); n > 0 {
		spec.Graphs = make([]GraphSpec, n)
		for i := range spec.Graphs {
			spec.Graphs[i] = decodeGraph(r)
		}
	}
	spec.Workers = r.int()
	spec.Nodes = r.int()
	if c := r.flag(2); c != 0 {
		v := c == 2
		spec.Validate = &v
	}
	return spec
}

func decodeGraph(r *binReader) GraphSpec {
	var g GraphSpec
	g.Steps = r.int()
	g.Width = r.int()
	g.Type = r.string()
	g.Radix = r.int()
	g.Period = r.int()
	g.Fraction = r.float()
	g.KernelSpec = decodeKernel(r)
	g.Output = r.int()
	g.Scratch = r.varint()
	g.Seed = r.uvarint()
	return g
}

func decodeKernel(r *binReader) KernelSpec {
	var k KernelSpec
	k.Kernel = r.string()
	k.Iterations = r.varint()
	k.SpanBytes = r.varint()
	k.WaitNanos = r.varint()
	k.Imbalance = r.float()
	return k
}
