package kvserver

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/shardedkv"
)

// readBack pushes an encoded frame through ReadFrame the way a
// connection would.
func readBack(t *testing.T, wire []byte) []byte {
	t.Helper()
	frame, err := ReadFrame(bufio.NewReader(bytes.NewReader(wire)), nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	return frame
}

// assertAliases fails unless v is a view of frame whose capacity is
// clipped to its length: the decoders hand out the frame's own bytes
// (flipping the frame flips v), and an append through v reallocates
// instead of overwriting the pair that follows it.
func assertAliases(t *testing.T, what string, frame, v []byte) {
	t.Helper()
	if cap(v) != len(v) {
		t.Fatalf("%s: decoded value has len %d, cap %d: an append would write into the frame", what, len(v), cap(v))
	}
	before := bytes.Clone(v)
	flip := func() {
		for i := range frame {
			frame[i] ^= 0xff
		}
	}
	flip()
	for i := range v {
		if v[i] != before[i]^0xff {
			t.Fatalf("%s: decoded value does not lie inside the frame it was decoded from", what)
		}
	}
	flip()
}

// TestRequestRoundTrip encodes one request of every opcode, reads it
// back through the framing layer, decodes it, and compares.
func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{ID: 1, Op: OpGet, Class: ClassInteractive, Key: 42},
		{ID: 2, Op: OpPut, Class: ClassBulk, Key: 7, Value: []byte("hello")},
		{ID: 3, Op: OpPut, Class: ClassInteractive, Key: 8, Value: nil},
		{ID: 4, Op: OpDelete, Class: ClassBulk, Key: ^uint64(0)},
		{ID: 5, Op: OpMultiGet, Class: ClassInteractive, Keys: []uint64{1, 2, 3}},
		{ID: 6, Op: OpMultiPut, Class: ClassBulk, KVs: []shardedkv.Pair{
			{Key: 1, Value: []byte("a")}, {Key: 2, Value: []byte{}},
		}},
		{ID: 7, Op: OpRange, Class: ClassBulk, Lo: 10, Hi: 99, Limit: 5},
		{ID: 8, Op: OpFlush, Class: ClassBulk},
		{ID: 9, Op: OpStats, Class: ClassInteractive},
	}
	for _, want := range reqs {
		wire, err := AppendRequest(nil, &want)
		if err != nil {
			t.Fatalf("op 0x%02x: AppendRequest: %v", want.Op, err)
		}
		frame := readBack(t, wire)
		got, err := DecodeRequest(frame)
		if err != nil {
			t.Fatalf("op 0x%02x: DecodeRequest: %v", want.Op, err)
		}
		assertAliases(t, "request value", frame, got.Value)
		for _, kv := range got.KVs {
			assertAliases(t, "request batch value", frame, kv.Value)
		}
		// Empty and nil slices compare equal on the wire.
		normalize := func(r *Request) {
			if len(r.Value) == 0 {
				r.Value = nil
			}
			for i := range r.KVs {
				if len(r.KVs[i].Value) == 0 {
					r.KVs[i].Value = nil
				}
			}
			if len(r.Keys) == 0 {
				r.Keys = nil
			}
			if len(r.KVs) == 0 {
				r.KVs = nil
			}
		}
		normalize(&want)
		normalize(&got)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("op 0x%02x round trip:\nwant %+v\ngot  %+v", want.Op, want, got)
		}
	}
}

// TestResponseRoundTrip exercises every response encoder against its
// payload decoder.
func TestResponseRoundTrip(t *testing.T) {
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	wire, err := AppendGetResponse(nil, 1, []byte("v"), true)
	check(err)
	resp, err := DecodeResponse(readBack(t, wire))
	check(err)
	if resp.ID != 1 || resp.Status != StatusOK {
		t.Fatalf("get response header: %+v", resp)
	}
	v, found, err := DecodeGetPayload(resp.Payload)
	check(err)
	if !found || string(v) != "v" {
		t.Fatalf("get payload: %q %v", v, found)
	}
	assertAliases(t, "get value", resp.Payload, v)

	wire, err = AppendGetResponse(nil, 2, nil, false)
	check(err)
	resp, _ = DecodeResponse(readBack(t, wire))
	if _, found, _ := DecodeGetPayload(resp.Payload); found {
		t.Fatal("missing key decoded as found")
	}

	wire, err = AppendBoolResponse(nil, 3, true)
	check(err)
	resp, _ = DecodeResponse(readBack(t, wire))
	ok, err := DecodeBoolPayload(resp.Payload)
	check(err)
	if !ok {
		t.Fatal("bool payload lost")
	}

	wire, err = AppendMultiGetResponse(nil, 4, [][]byte{[]byte("a"), nil}, []bool{true, false})
	check(err)
	resp, _ = DecodeResponse(readBack(t, wire))
	vals, founds, err := DecodeMultiGetPayload(resp.Payload)
	check(err)
	if len(vals) != 2 || !founds[0] || founds[1] || string(vals[0]) != "a" {
		t.Fatalf("multiget payload: %v %v", vals, founds)
	}
	assertAliases(t, "multiget value", resp.Payload, vals[0])
	if vals[1] != nil {
		t.Fatalf("missing key decoded to a value: %q", vals[1])
	}

	wire, err = AppendMultiPutResponse(nil, 5, 17)
	check(err)
	resp, _ = DecodeResponse(readBack(t, wire))
	n, err := DecodeMultiPutPayload(resp.Payload)
	check(err)
	if n != 17 {
		t.Fatalf("multiput payload: %d", n)
	}

	kvs := []shardedkv.Pair{{Key: 1, Value: []byte("x")}, {Key: 2, Value: []byte("y")}}
	wire, err = AppendRangeResponse(nil, 6, kvs, true)
	check(err)
	resp, _ = DecodeResponse(readBack(t, wire))
	if resp.Flags&FlagMore == 0 {
		t.Fatal("More flag lost")
	}
	got, err := DecodeRangePayload(resp.Payload)
	check(err)
	if !reflect.DeepEqual(kvs, got) {
		t.Fatalf("range payload: %v", got)
	}
	for _, kv := range got {
		assertAliases(t, "range value", resp.Payload, kv.Value)
	}
	// The contract's point: growing one decoded value leaves its
	// neighbour in the frame alone.
	_ = append(got[0].Value, "overrun"...)
	if string(got[1].Value) != "y" || got[1].Key != 2 {
		t.Fatalf("append through pair 0 reached pair 1: %v", got[1])
	}

	wire, err = AppendErrorResponse(nil, 7, StatusErrAdmission, "busy")
	check(err)
	resp, _ = DecodeResponse(readBack(t, wire))
	if resp.Status != StatusErrAdmission || string(resp.Payload) != "busy" {
		t.Fatalf("error response: %+v", resp)
	}
}

// TestDecodeMalformed feeds the decoder a gallery of invalid frames;
// every one must produce an error (and no panic).
func TestDecodeMalformed(t *testing.T) {
	mk := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	u64 := func(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }
	u32 := func(v uint32) []byte { return binary.BigEndian.AppendUint32(nil, v) }

	cases := map[string][]byte{
		"empty":               {},
		"header only partial": mk(u64(1), []byte{OpGet}),
		"bad class":           mk(u64(1), []byte{OpGet, 0x7f}, u64(42)),
		"unknown opcode":      mk(u64(1), []byte{0xee, ClassBulk}),
		"get missing key":     mk(u64(1), []byte{OpGet, ClassBulk}),
		"get trailing bytes":  mk(u64(1), []byte{OpGet, ClassBulk}, u64(42), []byte{0}),
		"put huge value len":  mk(u64(1), []byte{OpPut, ClassBulk}, u64(1), u32(MaxValueLen+1)),
		"put short value":     mk(u64(1), []byte{OpPut, ClassBulk}, u64(1), u32(100), []byte("short")),
		"multiget huge n":     mk(u64(1), []byte{OpMultiGet, ClassBulk}, u32(MaxBatchOps+1)),
		"multiget short":      mk(u64(1), []byte{OpMultiGet, ClassBulk}, u32(3), u64(1)),
		"multiput short":      mk(u64(1), []byte{OpMultiPut, ClassBulk}, u32(1), u64(1)),
		"range short":         mk(u64(1), []byte{OpRange, ClassBulk}, u64(1), u64(2)),
		"flush with payload":  mk(u64(1), []byte{OpFlush, ClassBulk}, []byte{1, 2, 3}),
	}
	for name, frame := range cases {
		if _, err := DecodeRequest(frame); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestReadFrameLimits checks the framing layer's length-prefix
// defences: undersized, oversized and truncated frames all error.
func TestReadFrameLimits(t *testing.T) {
	u32 := func(v uint32) []byte { return binary.BigEndian.AppendUint32(nil, v) }
	cases := map[string][]byte{
		"below header":   u32(4),
		"above MaxFrame": u32(MaxFrame + 1),
		"truncated body": append(u32(100), []byte("not a hundred bytes")...),
		"empty prefix":   {0, 0},
	}
	for name, wire := range cases {
		_, err := ReadFrame(bufio.NewReader(bytes.NewReader(wire)), nil)
		if err == nil {
			t.Errorf("%s: read without error", name)
		}
		if name == "above MaxFrame" && !strings.Contains(err.Error(), "MaxFrame") {
			t.Errorf("oversize error does not mention MaxFrame: %v", err)
		}
	}
}

// TestReadFramePrefixEOF: a close before the first prefix byte is a
// clean end of stream, io.EOF bare; a close after one to three of its
// four bytes is a torn frame.
func TestReadFramePrefixEOF(t *testing.T) {
	for n := 0; n < 4; n++ {
		wire := []byte{0, 0, 0, 20}[:n]
		_, err := ReadFrame(bufio.NewReader(bytes.NewReader(wire)), nil)
		switch {
		case n == 0 && err != io.EOF:
			t.Errorf("close before the prefix: %v, want io.EOF", err)
		case n > 0 && (err == nil || errors.Is(err, io.EOF) || !strings.Contains(err.Error(), "mid length prefix")):
			t.Errorf("close after %d prefix bytes: %v, want a mid-length-prefix error", n, err)
		}
	}
}

// FuzzDecodeRequest asserts the request decoder's core safety
// property: arbitrary bytes may produce an error but never a panic,
// and anything that decodes re-encodes cleanly.
func FuzzDecodeRequest(f *testing.F) {
	seeds := []Request{
		{ID: 1, Op: OpGet, Class: ClassInteractive, Key: 42},
		{ID: 2, Op: OpPut, Class: ClassBulk, Key: 7, Value: []byte("hello")},
		{ID: 5, Op: OpMultiGet, Class: ClassInteractive, Keys: []uint64{1, 2, 3}},
		{ID: 6, Op: OpMultiPut, Class: ClassBulk, KVs: []shardedkv.Pair{{Key: 1, Value: []byte("a")}}},
		{ID: 7, Op: OpRange, Class: ClassBulk, Lo: 10, Hi: 99, Limit: 5},
		{ID: 8, Op: OpFlush, Class: ClassBulk},
	}
	for i := range seeds {
		wire, err := AppendRequest(nil, &seeds[i])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire[4:]) // strip the length prefix: fuzz the frame body
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, frame []byte) {
		frame = bytes.Clone(frame) // assertAliases writes to it; the engine's bytes are read-only
		req, err := DecodeRequest(frame)
		if err != nil {
			return
		}
		if _, err := AppendRequest(nil, &req); err != nil {
			t.Fatalf("decoded request fails to re-encode: %v (%+v)", err, req)
		}
		assertAliases(t, "request value", frame, req.Value)
		for _, kv := range req.KVs {
			assertAliases(t, "request batch value", frame, kv.Value)
		}
	})
}

// FuzzDecodeResponsePayloads runs every client-side payload decoder
// over arbitrary bytes: errors allowed, panics not.
func FuzzDecodeResponsePayloads(f *testing.F) {
	okGet, _ := AppendGetResponse(nil, 1, []byte("v"), true)
	okRange, _ := AppendRangeResponse(nil, 2, []shardedkv.Pair{{Key: 9, Value: []byte("z")}, {Key: 10, Value: []byte("zz")}}, false)
	okMulti, _ := AppendMultiGetResponse(nil, 3, [][]byte{[]byte("a"), nil, []byte("bc")}, []bool{true, false, true})
	f.Add(okGet[14:])   // strip prefix+header: payload bytes
	f.Add(okRange[14:]) //
	f.Add(okMulti[14:]) //
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x01}, 32))
	f.Fuzz(func(t *testing.T, p []byte) {
		p = bytes.Clone(p) // assertAliases writes to it; the engine's bytes are read-only
		if v, _, err := DecodeGetPayload(p); err == nil {
			assertAliases(t, "get value", p, v)
		}
		_, _ = DecodeBoolPayload(p)
		if vals, _, err := DecodeMultiGetPayload(p); err == nil {
			for _, v := range vals {
				assertAliases(t, "multiget value", p, v)
			}
		}
		_, _ = DecodeMultiPutPayload(p)
		if kvs, err := DecodeRangePayload(p); err == nil {
			for _, kv := range kvs {
				assertAliases(t, "range value", p, kv.Value)
			}
		}
		if _, err := DecodeResponse(p); err == nil && len(p) < 10 {
			t.Fatal("short frame decoded as response")
		}
	})
}
