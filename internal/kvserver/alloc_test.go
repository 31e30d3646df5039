package kvserver

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/shardedkv"
)

// payloadOf strips the length prefix and header off an encoded response.
func payloadOf(t testing.TB, wire []byte, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	return wire[4+headerLen:]
}

// allocsPerRun is testing.AllocsPerRun, skipped under the race detector.
func allocsPerRun(t *testing.T, f func()) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	return testing.AllocsPerRun(200, f)
}

// TestDecodePayloadAllocs pins the ownership contract by its cost: the
// decoders allocate the slices they return and nothing per value, because
// values alias the payload.
func TestDecodePayloadAllocs(t *testing.T) {
	val := bytes.Repeat([]byte{7}, 64)
	vals, found := make([][]byte, 16), make([]bool, 16)
	kvs := make([]shardedkv.Pair, 513)
	for i := range vals {
		vals[i], found[i] = val, true
	}
	for i := range kvs {
		kvs[i] = shardedkv.Pair{Key: uint64(i), Value: val}
	}
	wire, err := AppendGetResponse(nil, 1, val, true)
	get := payloadOf(t, wire, err)
	wire, err = AppendMultiGetResponse(nil, 2, vals, found)
	multi := payloadOf(t, wire, err)
	wire, err = AppendRangeResponse(nil, 3, kvs, false)
	rng := payloadOf(t, wire, err)

	for _, c := range []struct {
		name string
		want float64
		f    func()
	}{
		{"DecodeGetPayload", 0, func() { _, _, _ = DecodeGetPayload(get) }},
		{"DecodeMultiGetPayload (vals, found)", 2, func() { _, _, _ = DecodeMultiGetPayload(multi) }},
		{"DecodeRangePayload (kvs)", 1, func() { _, _ = DecodeRangePayload(rng) }},
	} {
		if got := allocsPerRun(t, c.f); got != c.want {
			t.Errorf("%s: %v allocations per call, want %v", c.name, got, c.want)
		}
	}
}

// newExecFixture is a server over a preloaded 2-shard btree store plus
// what execute needs of a connection, with no socket in the way.
func newExecFixture(t testing.TB, keys int, val []byte) (*Server, *serverConn) {
	t.Helper()
	st := shardedkv.New(shardedkv.Config{Shards: 2, NewEngine: func(int) shardedkv.Engine { return shardedkv.NewBTreeEngine() }})
	s, err := New(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	sc := newServerConn(nil)
	for k := 0; k < keys; k++ {
		if _, err := st.Put(sc.ws[core.Big], uint64(k), val); err != nil {
			t.Fatal(err)
		}
	}
	return s, sc
}

// TestExecuteAllocs pins what serving one request allocates, the buffer
// it encodes into being warm. A point Get allocates nothing and a Put
// only the server's copy of its value (the btree then copies it into
// its leaf arena, whose growth amortises below one allocation per
// Put, and never rewrites bytes it has handed out): Range's streaming
// callback lives in appendRange so that execute's out stays off the heap
// (written inline in execute, the closure costs every request one
// allocation). A 513-pair Range allocates the callback's state, the
// store's collect closure and shard worklist, and nothing per pair.
func TestExecuteAllocs(t *testing.T) {
	s, sc := newExecFixture(t, 1024, bytes.Repeat([]byte{7}, 64))
	out := make([]byte, 0, 64<<10)
	run := func(req Request) func() {
		return func() {
			res, err := s.execute(sc, &req, out[:0])
			if err != nil || len(res) == 0 {
				t.Fatalf("execute op 0x%02x: %d bytes, %v", req.Op, len(res), err)
			}
		}
	}
	for _, c := range []struct {
		name string
		max  float64
		req  Request
	}{
		{"Get", 0, Request{ID: 1, Op: OpGet, Class: ClassInteractive, Key: 5}},
		{"Put", 1, Request{ID: 2, Op: OpPut, Class: ClassInteractive, Key: 5, Value: bytes.Repeat([]byte{9}, 64)}},
		{"Range of 513", 4, Request{ID: 3, Op: OpRange, Class: ClassBulk, Lo: 100, Hi: 612}},
	} {
		if got := allocsPerRun(t, run(c.req)); got > c.max {
			t.Errorf("%s: %v allocations per request, want at most %v", c.name, got, c.max)
		}
	}
}

// TestAppendRangeMatchesAppendRangeResponse: the streamed frame is byte
// for byte the one AppendRangeResponse builds from the same pairs, More
// flag and an existing prefix in out included.
func TestAppendRangeMatchesAppendRangeResponse(t *testing.T) {
	s, sc := newExecFixture(t, 64, []byte("value"))
	for _, c := range []struct {
		lo, hi uint64
		limit  uint32
		pairs  int
		more   bool
	}{
		{0, 63, 0, 64, false},
		{10, 40, 8, 8, true},
		{10, 17, 8, 8, false},
		{500, 600, 0, 0, false},
	} {
		var kvs []shardedkv.Pair
		for k := c.lo; k <= c.hi && len(kvs) < c.pairs; k++ {
			kvs = append(kvs, shardedkv.Pair{Key: k, Value: []byte("value")})
		}
		want, err := AppendRangeResponse([]byte("prefix"), 9, kvs, c.more)
		if err != nil {
			t.Fatal(err)
		}
		req := Request{ID: 9, Op: OpRange, Class: ClassBulk, Lo: c.lo, Hi: c.hi, Limit: c.limit}
		got, pairs, err := s.appendRange(sc.ws[core.Little], &req, []byte("prefix"))
		if err != nil || pairs != c.pairs || !bytes.Equal(got, want) {
			t.Errorf("Range [%d,%d] limit %d: %d pairs, err %v, frame differs: %v", c.lo, c.hi, c.limit, pairs, err, !bytes.Equal(got, want))
		}
	}
}

// TestAppendRangeStopsAtMaxFrame: values sized so the scan crosses
// MaxFrame mid-way. The callback must stop before the pair that would
// pass the limit — the frame under construction never exceeds MaxFrame —
// and hand back out as it was given, with the error execute turns into
// StatusErrTooLarge.
func TestAppendRangeStopsAtMaxFrame(t *testing.T) {
	val := make([]byte, MaxValueLen)
	const keys = MaxFrame/MaxValueLen + 1
	s, sc := newExecFixture(t, keys, val)
	fits := (MaxFrame - headerLen - 4) / (12 + MaxValueLen)

	req := Request{ID: 4, Op: OpRange, Class: ClassBulk, Lo: 0, Hi: keys}
	out, pairs, err := s.appendRange(sc.ws[core.Little], &req, []byte("prefix"))
	if err == nil || string(out) != "prefix" || pairs != fits {
		t.Fatalf("over-large scan: %d pairs (want %d), out reset to %d bytes, err %v", pairs, fits, len(out), err)
	}
	if c := cap(out); c > MaxFrame+MaxFrame/4+MaxValueLen {
		t.Fatalf("buffer grew to %d bytes building a frame that may not pass %d", c, MaxFrame)
	}

	out, err = s.execute(sc, &req, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeResponse(out[4:])
	if err != nil || resp.Status != StatusErrTooLarge || resp.ID != 4 || binary.BigEndian.Uint32(out) != uint32(len(out)-4) {
		t.Fatalf("over-large scan answered %+v, %v", resp, err)
	}
	if got := s.errs[core.Little].Load(); got != 1 {
		t.Fatalf("bulk error responses = %d, want 1", got)
	}

	// The same scan under a limit that fits is served whole.
	req.Limit = uint32(fits)
	out, err = s.execute(sc, &req, out[:0])
	if err != nil {
		t.Fatal(err)
	}
	resp, _ = DecodeResponse(out[4:])
	kvs, err := DecodeRangePayload(resp.Payload)
	if err != nil || resp.Status != StatusOK || resp.Flags&FlagMore == 0 || len(kvs) != fits || len(out)-4 > MaxFrame {
		t.Fatalf("limited scan: status %d, flags %d, %d pairs, frame %d bytes, %v", resp.Status, resp.Flags, len(kvs), len(out)-4, err)
	}
}

// TestAppendMultiGetBoundedBeforeBuilt: values that sum past MaxFrame
// are refused before a byte of them is copied — dst comes back as it
// went in, backing array included.
func TestAppendMultiGetBoundedBeforeBuilt(t *testing.T) {
	val := make([]byte, MaxValueLen)
	const n = MaxFrame/MaxValueLen + 1
	vals, found := make([][]byte, n), make([]bool, n)
	for i := range vals {
		vals[i], found[i] = val, true
	}
	dst := append(make([]byte, 0, 64), "prefix"...)
	out, err := AppendMultiGetResponse(dst, 9, vals, found)
	if err == nil || string(out) != "prefix" || &out[0] != &dst[0] || cap(out) != cap(dst) {
		t.Fatalf("over-large MultiGet response: err %v, out %q with capacity %d; want dst untouched", err, out, cap(out))
	}
	// Absent keys carry no value: the same count fits when none is found.
	clear(found)
	if out, err = AppendMultiGetResponse(dst, 9, vals, found); err != nil || len(out) != len(dst)+4+headerLen+4+5*n {
		t.Fatalf("all-absent MultiGet response: %d bytes, %v", len(out), err)
	}
	// One value under the limit still encodes.
	found[0] = true
	if out, err = AppendMultiGetResponse(nil, 9, vals[:MaxFrame/MaxValueLen-1], found[:MaxFrame/MaxValueLen-1]); err != nil {
		t.Fatalf("MultiGet response under MaxFrame refused: %v", err)
	}
	if got, err := DecodeResponse(out[4:]); err != nil || got.ID != 9 {
		t.Fatalf("decode: %+v, %v", got, err)
	}
}

// serveFrames feeds reqs to serveOne one at a time through in-memory
// buffers and hands each response frame, with the connection state as
// the request left it, to check.
func serveFrames(t *testing.T, s *Server, sc *serverConn, reqs []Request, check func(i int, resp Response)) {
	t.Helper()
	var in, out bytes.Buffer
	br, bw := bufio.NewReaderSize(&in, requestReadBuf), bufio.NewWriter(&out)
	for i := range reqs {
		wire, err := AppendRequest(nil, &reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		in.Write(wire)
		if !s.serveOne(sc, br, bw) {
			t.Fatalf("request %d dropped the connection", i)
		}
		bw.Flush()
		resp, err := DecodeResponse(out.Bytes()[4:])
		if err != nil {
			t.Fatal(err)
		}
		check(i, resp)
		out.Reset()
	}
}

// TestConnBuffersDropHighWaterMark: one oversized request must not pin
// its frame and response buffers on the connection — after it, and
// after the small request that follows, both are back under the
// retained bound — while steady 64 KiB batch traffic keeps reusing the
// same two buffers.
func TestConnBuffersDropHighWaterMark(t *testing.T) {
	s, sc := newExecFixture(t, 0, nil)
	big := make([]byte, MaxValueLen)
	keys := []uint64{1, 2, 3, 4, 5}
	kvs := make([]shardedkv.Pair, len(keys))
	for i, k := range keys {
		kvs[i] = shardedkv.Pair{Key: k, Value: big}
	}
	serveFrames(t, s, sc, []Request{
		{ID: 1, Op: OpMultiPut, Class: ClassBulk, KVs: kvs},   // 5 MiB frame
		{ID: 2, Op: OpMultiGet, Class: ClassBulk, Keys: keys}, // 5 MiB response
		{ID: 3, Op: OpGet, Class: ClassInteractive, Key: 77},
	}, func(i int, resp Response) {
		if resp.Status != StatusOK {
			t.Fatalf("request %d: status %d", i, resp.Status)
		}
		if cap(sc.frame) > connBufRetain || cap(sc.out) > connBufRetain {
			t.Fatalf("after request %d the connection holds a %d-byte frame and a %d-byte response buffer; bound %d",
				i, cap(sc.frame), cap(sc.out), connBufRetain)
		}
	})

	val := make([]byte, 4096)
	batch := make([]shardedkv.Pair, 16)
	bkeys := make([]uint64, len(batch))
	for i := range batch {
		bkeys[i] = uint64(100 + i)
		batch[i] = shardedkv.Pair{Key: bkeys[i], Value: val}
	}
	steady := make([]Request, 12)
	for i := range steady {
		steady[i] = Request{ID: uint64(10 + i), Op: OpMultiGet, Class: ClassBulk, Keys: bkeys}
		if i%2 == 0 {
			steady[i] = Request{ID: uint64(10 + i), Op: OpMultiPut, Class: ClassBulk, KVs: batch}
		}
	}
	var frame0, out0 *byte
	serveFrames(t, s, sc, steady, func(i int, resp Response) {
		if resp.Status != StatusOK {
			t.Fatalf("steady request %d: status %d", i, resp.Status)
		}
		switch {
		case i == 1: // one 64 KiB request and one 64 KiB response seen
			frame0, out0 = &sc.frame[:1][0], &sc.out[:1][0]
		case i > 1 && (&sc.frame[:1][0] != frame0 || &sc.out[:1][0] != out0):
			t.Fatalf("steady 64 KiB request %d reallocated a connection buffer", i)
		}
	})
}
