// Package kvserver is the network front end of the sharded
// asymmetry-aware KV layer: a length-prefixed binary protocol over TCP
// in which EVERY request carries an SLO class byte that the server
// maps to the lock class used for that operation. Interactive requests
// run big-class (ASL fast path; under the combining pipeline they
// elect and spin), bulk requests run little-class (reorder/standby at
// the lock; under the pipeline they enqueue and park) — per-request
// admission at the serving boundary, replacing per-goroutine class
// assignment. Both classes go straight to the store: the shard lock is
// the one place that restricts concurrency.
//
// The wire format is specified normatively in docs/protocol.md; this
// file is the codec. Frames are length-prefixed; the decoder treats
// every malformed input as an error (never a panic), so a hostile peer
// can at worst get its own connection closed.
//
// internal/kvclient implements the matching client, one request in
// flight per connection; cmd/kvserver is the standalone binary;
// benchmark/ measures the served stack over loopback.
package kvserver

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/shardedkv"
)

// Magic is the 4-byte connection preamble ("aKV" + protocol version
// digit). A server closes any connection whose preamble does not match
// (see docs/protocol.md, Versioning).
const Magic = "aKV1"

// Protocol limits. The decoder enforces all of them; encoders refuse
// to build frames that break them.
const (
	// MaxFrame bounds one frame's post-length-prefix size: a malformed
	// or hostile length prefix cannot make a peer allocate more.
	MaxFrame = 1 << 24 // 16 MiB
	// MaxBatchOps bounds the element count of MultiGet/MultiPut.
	MaxBatchOps = 1 << 16
	// MaxValueLen bounds one value.
	MaxValueLen = 1 << 20 // 1 MiB
	// MaxRangePairs bounds the pairs one Range response returns; a
	// request asking for more (Limit 0 = "no limit") is clamped and
	// the response's More flag set.
	MaxRangePairs = 1 << 16
	// headerLen is the fixed request/response header after the length
	// prefix: id u64 + opcode/status u8 + class/flags u8.
	headerLen = 10
)

// Opcodes. Values are part of the wire contract (docs/protocol.md);
// never renumber, only append.
const (
	OpGet      uint8 = 0x01
	OpPut      uint8 = 0x02
	OpDelete   uint8 = 0x03
	OpMultiGet uint8 = 0x04
	OpMultiPut uint8 = 0x05
	OpRange    uint8 = 0x06
	OpFlush    uint8 = 0x07
	OpStats    uint8 = 0x08
)

// Class is the per-request SLO class byte: the client's latency
// contract, which the server maps to the lock class of the operation.
const (
	// ClassInteractive marks latency-sensitive requests: big-class at
	// the shard lock (immediate FIFO admission; elect/combine/spin on
	// the pipeline).
	ClassInteractive uint8 = 0x00
	// ClassBulk marks throughput/batch requests: little-class at the
	// shard lock (reorder window standby; enqueue/park on the
	// pipeline).
	ClassBulk uint8 = 0x01
)

// Status codes. 0 is success; everything else is an error whose
// payload is a human-readable message.
const (
	StatusOK           uint8 = 0x00
	StatusErrMalformed uint8 = 0x01
	StatusErrUnknownOp uint8 = 0x02
	// StatusErrAdmission is no longer sent: the server has no
	// admission gate and sheds nothing. Wire constants are
	// append-only, so the value stays reserved.
	StatusErrAdmission uint8 = 0x03
	StatusErrTooLarge  uint8 = 0x04
	StatusErrShutdown  uint8 = 0x05
	// StatusErrUnavailable: the store refused the write's durability
	// promise (a shard is degraded after a log failure). Reads keep
	// serving; the write was NOT durably acked and is safe to retry
	// against a recovered server.
	StatusErrUnavailable uint8 = 0x06
)

// statusText names every status for errors and logs.
var statusText = map[uint8]string{
	StatusOK:             "ok",
	StatusErrMalformed:   "malformed request",
	StatusErrUnknownOp:   "unknown opcode",
	StatusErrAdmission:   "bulk admission rejected",
	StatusErrTooLarge:    "frame too large",
	StatusErrShutdown:    "server shutting down",
	StatusErrUnavailable: "store degraded",
}

// StatusText returns the name of a status code.
func StatusText(st uint8) string {
	if s, ok := statusText[st]; ok {
		return s
	}
	return fmt.Sprintf("status 0x%02x", st)
}

// Request is one decoded request frame.
type Request struct {
	ID    uint64
	Op    uint8
	Class uint8

	Key   uint64           // Get / Put / Delete
	Value []byte           // Put (aliases the frame buffer — copy to retain)
	Keys  []uint64         // MultiGet
	KVs   []shardedkv.Pair // MultiPut (values alias the frame buffer)
	Lo    uint64           // Range
	Hi    uint64           // Range
	Limit uint32           // Range: max pairs; 0 = server default
}

// wireErr builds a decode error; every malformed-input path funnels
// through here so fuzzing can assert "error, not panic".
func wireErr(format string, args ...any) error {
	return fmt.Errorf("kvserver: %s", fmt.Sprintf(format, args...))
}

// rd is a bounds-checked little reader over one frame.
type rd struct {
	b   []byte
	off int
}

func (r *rd) remain() int { return len(r.b) - r.off }

func (r *rd) u8() (uint8, error) {
	if r.remain() < 1 {
		return 0, wireErr("truncated frame: want u8 at %d, len %d", r.off, len(r.b))
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *rd) u32() (uint32, error) {
	if r.remain() < 4 {
		return 0, wireErr("truncated frame: want u32 at %d, len %d", r.off, len(r.b))
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *rd) u64() (uint64, error) {
	if r.remain() < 8 {
		return 0, wireErr("truncated frame: want u64 at %d, len %d", r.off, len(r.b))
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

// bytes returns the next n bytes as a slice of the frame with its
// capacity clipped to its length: every decoded value aliases the frame,
// and an append through one must reallocate rather than overwrite the
// bytes that follow it.
func (r *rd) bytes(n int) ([]byte, error) {
	if n < 0 || r.remain() < n {
		return nil, wireErr("truncated frame: want %d bytes at %d, len %d", n, r.off, len(r.b))
	}
	b := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return b, nil
}

// value reads a u32-length-prefixed value, enforcing MaxValueLen.
func (r *rd) value() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if n > MaxValueLen {
		return nil, wireErr("value length %d exceeds MaxValueLen %d", n, MaxValueLen)
	}
	return r.bytes(int(n))
}

// done errors unless the frame is fully consumed: trailing garbage is
// a malformed frame, not padding.
func (r *rd) done() error {
	if r.remain() != 0 {
		return wireErr("frame has %d trailing bytes", r.remain())
	}
	return nil
}

// connBufRetain bounds the capacity of a frame buffer a connection
// keeps from one request to the next: a quarter of MaxFrame, room for
// steady batch traffic up to a 256-pair load of 4 KiB values (1 MiB
// frames, which a 1 MiB bound made every request reallocate).
const connBufRetain = 4 << 20

// RetainBuf returns b for reuse by the connection's next request, or
// nil when b grew past connBufRetain: buffers only ever grow, so
// without this one 16 MiB request would pin its high-water mark — on
// the server twice, frame and response — until the connection closes.
func RetainBuf(b []byte) []byte {
	if cap(b) > connBufRetain {
		return nil
	}
	return b
}

// ReadFrame reads one length-prefixed frame from br into buf (grown as
// needed) and returns the frame bytes (length prefix stripped). io.EOF
// is returned bare on a clean close before the prefix. The prefix is
// read in place from br's buffer: a local array handed to io.ReadFull
// would escape through the io.Reader interface, one heap object per
// frame on both ends of the wire.
func ReadFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	lb, err := br.Peek(4)
	if err != nil {
		if err == io.EOF && len(lb) > 0 {
			return nil, wireErr("connection closed mid length prefix")
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(lb)
	_, _ = br.Discard(4) // cannot fail: Peek buffered these 4 bytes
	if n < headerLen {
		return nil, wireErr("frame length %d below header size %d", n, headerLen)
	}
	if n > MaxFrame {
		return nil, wireErr("frame length %d exceeds MaxFrame %d", n, MaxFrame)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, wireErr("connection closed mid frame: %v", err)
	}
	return buf, nil
}

// DecodeRequest decodes one request frame (as returned by ReadFrame).
// Slices in the result alias frame. Malformed input returns an error;
// the returned Request still carries the ID when at least the header
// decoded, so the server can answer StatusErrMalformed in-stream.
func DecodeRequest(frame []byte) (Request, error) {
	var req Request
	r := &rd{b: frame}
	var err error
	if req.ID, err = r.u64(); err != nil {
		return req, err
	}
	if req.Op, err = r.u8(); err != nil {
		return req, err
	}
	if req.Class, err = r.u8(); err != nil {
		return req, err
	}
	if req.Class != ClassInteractive && req.Class != ClassBulk {
		return req, wireErr("unknown class byte 0x%02x", req.Class)
	}
	switch req.Op {
	case OpGet, OpDelete:
		if req.Key, err = r.u64(); err != nil {
			return req, err
		}
	case OpPut:
		if req.Key, err = r.u64(); err != nil {
			return req, err
		}
		if req.Value, err = r.value(); err != nil {
			return req, err
		}
	case OpMultiGet:
		var n uint32
		if n, err = r.u32(); err != nil {
			return req, err
		}
		if n > MaxBatchOps {
			return req, wireErr("batch of %d keys exceeds MaxBatchOps %d", n, MaxBatchOps)
		}
		// Check the declared count against the bytes actually present
		// BEFORE allocating: a tiny frame must not buy a big slice.
		if int(n)*8 > r.remain() {
			return req, wireErr("batch of %d keys exceeds frame size %d", n, len(r.b))
		}
		req.Keys = make([]uint64, n)
		for i := range req.Keys {
			if req.Keys[i], err = r.u64(); err != nil {
				return req, err
			}
		}
	case OpMultiPut:
		var n uint32
		if n, err = r.u32(); err != nil {
			return req, err
		}
		if n > MaxBatchOps {
			return req, wireErr("batch of %d pairs exceeds MaxBatchOps %d", n, MaxBatchOps)
		}
		// One pair is at least key u64 + vlen u32: size-check before
		// allocating, as with MultiGet.
		if int(n)*12 > r.remain() {
			return req, wireErr("batch of %d pairs exceeds frame size %d", n, len(r.b))
		}
		req.KVs = make([]shardedkv.Pair, n)
		for i := range req.KVs {
			if req.KVs[i].Key, err = r.u64(); err != nil {
				return req, err
			}
			if req.KVs[i].Value, err = r.value(); err != nil {
				return req, err
			}
		}
	case OpRange:
		if req.Lo, err = r.u64(); err != nil {
			return req, err
		}
		if req.Hi, err = r.u64(); err != nil {
			return req, err
		}
		if req.Limit, err = r.u32(); err != nil {
			return req, err
		}
	case OpFlush, OpStats:
		// No payload.
	default:
		return req, wireErr("unknown opcode 0x%02x", req.Op)
	}
	if err := r.done(); err != nil {
		return req, err
	}
	return req, nil
}

// Frame building. Frames are appended to dst: a 4-byte length
// placeholder, the header, the payload, then the length backfilled.

func beginFrame(dst []byte, id uint64, b9, b10 uint8) ([]byte, int) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = append(dst, b9, b10)
	return dst, start
}

func endFrame(dst []byte, start int) ([]byte, error) {
	n := len(dst) - start - 4
	if n > MaxFrame {
		return dst[:start], wireErr("encoded frame length %d exceeds MaxFrame %d", n, MaxFrame)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

func appendValue(dst, v []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(v)))
	return append(dst, v...)
}

// AppendRequest appends req as one frame to dst. It validates the
// same limits the decoder enforces, so an encoded frame always
// decodes.
func AppendRequest(dst []byte, req *Request) ([]byte, error) {
	if req.Class != ClassInteractive && req.Class != ClassBulk {
		return dst, wireErr("unknown class byte 0x%02x", req.Class)
	}
	out, start := beginFrame(dst, req.ID, req.Op, req.Class)
	switch req.Op {
	case OpGet, OpDelete:
		out = binary.BigEndian.AppendUint64(out, req.Key)
	case OpPut:
		if len(req.Value) > MaxValueLen {
			return dst, wireErr("value length %d exceeds MaxValueLen %d", len(req.Value), MaxValueLen)
		}
		out = binary.BigEndian.AppendUint64(out, req.Key)
		out = appendValue(out, req.Value)
	case OpMultiGet:
		if len(req.Keys) > MaxBatchOps {
			return dst, wireErr("batch of %d keys exceeds MaxBatchOps %d", len(req.Keys), MaxBatchOps)
		}
		out = binary.BigEndian.AppendUint32(out, uint32(len(req.Keys)))
		for _, k := range req.Keys {
			out = binary.BigEndian.AppendUint64(out, k)
		}
	case OpMultiPut:
		if len(req.KVs) > MaxBatchOps {
			return dst, wireErr("batch of %d pairs exceeds MaxBatchOps %d", len(req.KVs), MaxBatchOps)
		}
		out = binary.BigEndian.AppendUint32(out, uint32(len(req.KVs)))
		for _, kv := range req.KVs {
			if len(kv.Value) > MaxValueLen {
				return dst, wireErr("value length %d exceeds MaxValueLen %d", len(kv.Value), MaxValueLen)
			}
			out = binary.BigEndian.AppendUint64(out, kv.Key)
			out = appendValue(out, kv.Value)
		}
	case OpRange:
		out = binary.BigEndian.AppendUint64(out, req.Lo)
		out = binary.BigEndian.AppendUint64(out, req.Hi)
		out = binary.BigEndian.AppendUint32(out, req.Limit)
	case OpFlush, OpStats:
	default:
		return dst, wireErr("unknown opcode 0x%02x", req.Op)
	}
	return endFrame(out, start)
}

// FlagMore is the response-flag bit marking a truncated Range
// emission (the second header byte of a response carries flags).
const FlagMore uint8 = 0x01

// AppendGetResponse: found u8 | vlen u32 | v.
func AppendGetResponse(dst []byte, id uint64, v []byte, found bool) ([]byte, error) {
	out, start := beginFrame(dst, id, StatusOK, 0)
	out = append(out, boolByte(found))
	if found {
		out = appendValue(out, v)
	} else {
		out = appendValue(out, nil)
	}
	return endFrame(out, start)
}

// AppendBoolResponse: ok u8 (Put's inserted / Delete's present).
func AppendBoolResponse(dst []byte, id uint64, ok bool) ([]byte, error) {
	out, start := beginFrame(dst, id, StatusOK, 0)
	out = append(out, boolByte(ok))
	return endFrame(out, start)
}

// AppendMultiGetResponse: n u32 | n × (found u8 | vlen u32 | v).
func AppendMultiGetResponse(dst []byte, id uint64, vals [][]byte, found []bool) ([]byte, error) {
	// Bound the frame BEFORE building it: 65 536 keys over 1 MiB values
	// would otherwise be copied into dst — gigabytes — for endFrame to
	// refuse.
	n := headerLen + 4 + 5*len(vals)
	for i, v := range vals {
		if found[i] {
			n += len(v)
		}
	}
	if n > MaxFrame {
		return dst, wireErr("encoded frame length %d exceeds MaxFrame %d", n, MaxFrame)
	}
	out, start := beginFrame(slices.Grow(dst, 4+n), id, StatusOK, 0)
	out = binary.BigEndian.AppendUint32(out, uint32(len(vals)))
	for i, v := range vals {
		out = append(out, boolByte(found[i]))
		if found[i] {
			out = appendValue(out, v)
		} else {
			out = appendValue(out, nil)
		}
	}
	return endFrame(out, start)
}

// AppendMultiPutResponse: inserted u32.
func AppendMultiPutResponse(dst []byte, id uint64, inserted int) ([]byte, error) {
	out, start := beginFrame(dst, id, StatusOK, 0)
	out = binary.BigEndian.AppendUint32(out, uint32(inserted))
	return endFrame(out, start)
}

// AppendRangeResponse: n u32 | n × (key u64 | vlen u32 | v); the
// More flag marks a truncated emission.
func AppendRangeResponse(dst []byte, id uint64, kvs []shardedkv.Pair, more bool) ([]byte, error) {
	var flags uint8
	if more {
		flags |= FlagMore
	}
	out, start := beginFrame(dst, id, StatusOK, flags)
	out = binary.BigEndian.AppendUint32(out, uint32(len(kvs)))
	for _, kv := range kvs {
		out = binary.BigEndian.AppendUint64(out, kv.Key)
		out = appendValue(out, kv.Value)
	}
	return endFrame(out, start)
}

// AppendEmptyResponse: success with no payload (Flush).
func AppendEmptyResponse(dst []byte, id uint64) ([]byte, error) {
	out, start := beginFrame(dst, id, StatusOK, 0)
	return endFrame(out, start)
}

// AppendStatsResponse: raw JSON bytes (the frame delimits them).
func AppendStatsResponse(dst []byte, id uint64, jsonBody []byte) ([]byte, error) {
	out, start := beginFrame(dst, id, StatusOK, 0)
	out = append(out, jsonBody...)
	return endFrame(out, start)
}

// AppendErrorResponse: status != OK, payload = message bytes.
func AppendErrorResponse(dst []byte, id uint64, status uint8, msg string) ([]byte, error) {
	out, start := beginFrame(dst, id, status, 0)
	out = append(out, msg...)
	return endFrame(out, start)
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// Response is one decoded response frame header plus its raw payload.
type Response struct {
	ID      uint64
	Status  uint8
	Flags   uint8
	Payload []byte // aliases the frame buffer
}

// DecodeResponse splits one response frame into header and payload.
func DecodeResponse(frame []byte) (Response, error) {
	var resp Response
	r := &rd{b: frame}
	var err error
	if resp.ID, err = r.u64(); err != nil {
		return resp, err
	}
	if resp.Status, err = r.u8(); err != nil {
		return resp, err
	}
	if resp.Flags, err = r.u8(); err != nil {
		return resp, err
	}
	resp.Payload = frame[r.off:]
	return resp, nil
}

// Payload decoders (client side). Each consumes a StatusOK payload of
// the corresponding op. Decoded values are NOT copied: they alias p
// (capacity clipped to length), so they live exactly as long as the
// frame does and retaining one value retains the whole frame. kvclient
// reads every response that returns bytes into a buffer of its own that
// passes to the completed call, so its callers may keep what they get;
// a caller that decodes out of a buffer it reuses must copy what it
// keeps, as kvclient does with the responses it reads into its one
// reused buffer.

// DecodeGetPayload returns (value, found); value aliases p.
func DecodeGetPayload(p []byte) ([]byte, bool, error) {
	r := &rd{b: p}
	f, err := r.u8()
	if err != nil {
		return nil, false, err
	}
	v, err := r.value()
	if err != nil {
		return nil, false, err
	}
	if err := r.done(); err != nil {
		return nil, false, err
	}
	if f == 0 {
		return nil, false, nil
	}
	return v, true, nil
}

// DecodeBoolPayload returns the single result byte.
func DecodeBoolPayload(p []byte) (bool, error) {
	r := &rd{b: p}
	b, err := r.u8()
	if err != nil {
		return false, err
	}
	if err := r.done(); err != nil {
		return false, err
	}
	return b != 0, nil
}

// DecodeMultiGetPayload returns per-key values and presence; the values
// alias p.
func DecodeMultiGetPayload(p []byte) ([][]byte, []bool, error) {
	r := &rd{b: p}
	n, err := r.u32()
	if err != nil {
		return nil, nil, err
	}
	if n > MaxBatchOps {
		return nil, nil, wireErr("response batch of %d exceeds MaxBatchOps %d", n, MaxBatchOps)
	}
	// One element is at least found u8 + vlen u32.
	if int(n)*5 > r.remain() {
		return nil, nil, wireErr("response batch of %d exceeds payload size %d", n, len(p))
	}
	vals := make([][]byte, n)
	found := make([]bool, n)
	for i := range vals {
		f, err := r.u8()
		if err != nil {
			return nil, nil, err
		}
		v, err := r.value()
		if err != nil {
			return nil, nil, err
		}
		if f != 0 {
			found[i] = true
			vals[i] = v
		}
	}
	if err := r.done(); err != nil {
		return nil, nil, err
	}
	return vals, found, nil
}

// DecodeMultiPutPayload returns the inserted count.
func DecodeMultiPutPayload(p []byte) (int, error) {
	r := &rd{b: p}
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	if err := r.done(); err != nil {
		return 0, err
	}
	return int(n), nil
}

// DecodeRangePayload returns the pairs; their values alias p.
func DecodeRangePayload(p []byte) ([]shardedkv.Pair, error) {
	r := &rd{b: p}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if n > MaxRangePairs {
		return nil, wireErr("range response of %d pairs exceeds MaxRangePairs %d", n, MaxRangePairs)
	}
	// One pair is at least key u64 + vlen u32.
	if int(n)*12 > r.remain() {
		return nil, wireErr("range response of %d pairs exceeds payload size %d", n, len(p))
	}
	kvs := make([]shardedkv.Pair, n)
	for i := range kvs {
		if kvs[i].Key, err = r.u64(); err != nil {
			return nil, err
		}
		if kvs[i].Value, err = r.value(); err != nil {
			return nil, err
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return kvs, nil
}
