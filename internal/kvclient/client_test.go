package kvclient

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kvserver"
	"repro/internal/shardedkv"
)

// fakeServer is a scriptable peer: it accepts, consumes the magic
// preamble, and hands each decoded request to handle, which returns the
// raw response bytes to write (nil = write nothing). Returning true as
// the second result makes the server write the bytes and slam the
// connection.
type fakeServer struct {
	ln     net.Listener
	handle func(req kvserver.Request) ([]byte, bool)
	inline bool // serve each connection on the accepting goroutine
	wg     sync.WaitGroup
}

func newFakeServer(t *testing.T, handle func(req kvserver.Request) ([]byte, bool)) *fakeServer {
	return listenFake(t, handle, false)
}

// newInlineServer is newFakeServer serving its connections one at a
// time on the goroutine that accepts them, so a connection starts no
// goroutine on the server's side.
func newInlineServer(t *testing.T, handle func(req kvserver.Request) ([]byte, bool)) *fakeServer {
	return listenFake(t, handle, true)
}

func listenFake(t *testing.T, handle func(req kvserver.Request) ([]byte, bool), inline bool) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	fs := &fakeServer{ln: ln, handle: handle, inline: inline}
	fs.wg.Add(1)
	go fs.serve()
	t.Cleanup(func() { ln.Close(); fs.wg.Wait() })
	return fs
}

func (fs *fakeServer) addr() string { return fs.ln.Addr().String() }

func (fs *fakeServer) serve() {
	defer fs.wg.Done()
	for {
		conn, err := fs.ln.Accept()
		if err != nil {
			return
		}
		if fs.inline {
			fs.serveConn(conn)
			continue
		}
		fs.wg.Add(1)
		go func() {
			defer fs.wg.Done()
			fs.serveConn(conn)
		}()
	}
}

func (fs *fakeServer) serveConn(conn net.Conn) {
	defer conn.Close()
	var magic [4]byte
	if _, err := io.ReadFull(conn, magic[:]); err != nil {
		return
	}
	br := bufio.NewReader(conn)
	for {
		frame, err := kvserver.ReadFrame(br, nil)
		if err != nil {
			return
		}
		req, err := kvserver.DecodeRequest(frame)
		if err != nil {
			return
		}
		out, die := fs.handle(req)
		if len(out) > 0 {
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
		if die {
			return
		}
	}
}

func okBool(id uint64) []byte {
	out, err := kvserver.AppendBoolResponse(nil, id, true)
	if err != nil {
		panic(err)
	}
	return out
}

// TestMidFrameDropFailsAllPending is the regression test for the
// stranded-caller bug: a server that dies mid response frame must fail
// every in-flight call with a retryable error — none may block forever,
// and the client must refuse (not hang) afterwards.
func TestMidFrameDropFailsAllPending(t *testing.T) {
	const inflight = 8
	var got atomic.Int32
	release := make(chan struct{})
	fs := newFakeServer(t, func(req kvserver.Request) ([]byte, bool) {
		if int(got.Add(1)) < inflight {
			return nil, false // hold the response: keep the call pending
		}
		<-release
		// Last request: emit a torn frame — a length prefix promising 20
		// bytes, then 5 — and slam the connection under everyone.
		torn := binary.BigEndian.AppendUint32(nil, 20)
		torn = append(torn, 1, 2, 3, 4, 5)
		return torn, true
	})

	c, err := Dial(fs.addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func(k uint64) {
			_, err := c.Put(kvserver.ClassInteractive, k, []byte("v"))
			errs <- err
		}(uint64(i))
	}
	// Release the torn frame only once all requests reached the server,
	// so every call is genuinely pending when the connection dies.
	for int(got.Load()) < inflight {
		time.Sleep(time.Millisecond)
	}
	close(release)

	for i := 0; i < inflight; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatalf("call %d: nil error after torn frame", i)
			}
			if !IsRetryable(err) {
				t.Fatalf("call %d: error not retryable: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("call %d stranded: no completion after torn frame", i)
		}
	}
	// The poisoned client fails fast, it does not hang.
	done := make(chan error, 1)
	go func() {
		_, err := c.Put(kvserver.ClassInteractive, 99, []byte("v"))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !IsRetryable(err) {
			t.Fatalf("post-teardown call: want retryable error, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-teardown call hung")
	}
}

// TestRequestTimeoutIsRetryable: a server that swallows requests must
// not hold a deadline-bearing caller past its RequestTimeout.
func TestRequestTimeoutIsRetryable(t *testing.T) {
	fs := newFakeServer(t, func(req kvserver.Request) ([]byte, bool) {
		return nil, false // never answer
	})
	c, err := DialOpts(fs.addr(), Options{RequestTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Put(kvserver.ClassInteractive, 1, []byte("v"))
	if err == nil {
		t.Fatal("nil error from swallowed request")
	}
	if !IsRetryable(err) {
		t.Fatalf("timeout not retryable: %v", err)
	}
	if el := time.Since(start); el > 3*time.Second {
		t.Fatalf("timeout took %v, want ~100ms", el)
	}
}

// TestRetryingHealsAcrossConnectionDeath: the first connection dies on
// its first request; the Retrying wrapper must redial and complete the
// operation on a fresh connection without surfacing an error.
func TestRetryingHealsAcrossConnectionDeath(t *testing.T) {
	var conns atomic.Int32
	fs := newFakeServer(t, func(req kvserver.Request) ([]byte, bool) {
		if conns.Add(1) == 1 {
			return nil, true // first request: die without answering
		}
		return okBool(req.ID), false
	})
	r := NewRetrying(fs.addr(), RetryConfig{
		BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond,
		RequestTimeout: time.Second, Seed: 7,
	})
	defer r.Close()
	ins, err := r.Put(kvserver.ClassInteractive, 1, []byte("v"))
	if err != nil {
		t.Fatalf("retrying put: %v", err)
	}
	if !ins {
		t.Fatal("retrying put: want inserted=true from fake server")
	}
	if conns.Load() < 2 {
		t.Fatalf("want a second connection after the first died, got %d requests", conns.Load())
	}
}

// TestRetryingGivesUpOnNonRetryable: a hard protocol error must surface
// on the first attempt, not burn the retry budget.
func TestRetryingGivesUpOnNonRetryable(t *testing.T) {
	var calls atomic.Int32
	fs := newFakeServer(t, func(req kvserver.Request) ([]byte, bool) {
		calls.Add(1)
		out, err := kvserver.AppendErrorResponse(nil, req.ID, kvserver.StatusErrTooLarge, "nope")
		if err != nil {
			panic(err)
		}
		return out, false
	})
	r := NewRetrying(fs.addr(), RetryConfig{RequestTimeout: time.Second})
	defer r.Close()
	_, err := r.Put(kvserver.ClassInteractive, 1, []byte("v"))
	var se *StatusError
	if !errors.As(err, &se) || se.Status != kvserver.StatusErrTooLarge {
		t.Fatalf("want StatusErrTooLarge, got %v", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("non-retryable error should not retry: %d attempts", n)
	}
}

// TestIsRetryableClassification pins the error taxonomy the soak
// harness and the Retrying wrapper depend on.
func TestIsRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{&RetryableError{Err: fmt.Errorf("conn reset")}, true},
		{&StatusError{Status: kvserver.StatusErrAdmission}, true},
		{&StatusError{Status: kvserver.StatusErrUnavailable}, true},
		{&StatusError{Status: kvserver.StatusErrShutdown}, true},
		{&StatusError{Status: kvserver.StatusErrMalformed}, false},
		{&StatusError{Status: kvserver.StatusErrTooLarge}, false},
		{ErrClosed, false},
		{fmt.Errorf("wrapped: %w", &RetryableError{Err: ErrClosed}), true},
		{nil, false},
	}
	for _, tc := range cases {
		if got := IsRetryable(tc.err); got != tc.want {
			t.Errorf("IsRetryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// echo answers Get, MultiGet and Range with values derived from the
// request id, and everything else with a true bool.
func echo(req kvserver.Request) ([]byte, bool) {
	val := bytes.Repeat([]byte{byte(req.ID)}, 32)
	var out []byte
	var err error
	switch req.Op {
	case kvserver.OpGet:
		out, err = kvserver.AppendGetResponse(nil, req.ID, val, true)
	case kvserver.OpMultiGet:
		out, err = kvserver.AppendMultiGetResponse(nil, req.ID, [][]byte{val, val}, []bool{true, true})
	case kvserver.OpRange:
		out, err = kvserver.AppendRangeResponse(nil, req.ID, []shardedkv.Pair{{Key: 1, Value: val}, {Key: 2, Value: val}}, false)
	default:
		out = okBool(req.ID)
	}
	if err != nil {
		panic(err)
	}
	return out, false
}

func echoServer(t *testing.T) *fakeServer { return newFakeServer(t, echo) }

// TestSuccessiveResponsesOwnTheirMemory: decoded values alias the frame
// their response arrived in, so that frame must belong to its call
// alone. Values a caller holds from one call stay intact through every
// later call on the same Client, and scribbling over them reaches no
// later result — which is what would break if the caller holding the
// read side ever read frames into a buffer it reuses.
func TestSuccessiveResponsesOwnTheirMemory(t *testing.T) {
	c, err := Dial(echoServer(t).addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	// held[i] is every value call i returned; call i is request id i+1.
	var held [][][]byte
	for round := 0; round < 4; round++ {
		v, _, err := c.Get(kvserver.ClassInteractive, 1)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, [][]byte{v})
		vals, _, err := c.MultiGet(kvserver.ClassInteractive, []uint64{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, vals)
		kvs, _, err := c.Range(kvserver.ClassBulk, 0, 9, 0)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, [][]byte{kvs[0].Value, kvs[1].Value})
	}
	for pass := 0; pass < 2; pass++ {
		for i, vals := range held {
			for _, v := range vals {
				if !bytes.Equal(v, bytes.Repeat([]byte{byte(i + 1)}, 32)) {
					t.Fatalf("pass %d: a value of call %d changed under a later call or a neighbour's overwrite: %x", pass, i+1, v)
				}
			}
			if pass == 0 && i%2 == 0 {
				// Overwrite every other call's values; the second pass
				// shows the rest untouched.
				for _, v := range vals {
					clear(v)
				}
				held[i] = nil
			}
		}
	}
}

// TestRequestTimeoutAllocatesNoTimer: a client with a RequestTimeout
// keeps its deadline timer on the pooled pending slot, so a timed round
// trip allocates what an untimed one does (a time.NewTimer per call
// would show as three allocations more).
func TestRequestTimeoutAllocatesNoTimer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	fs := echoServer(t)
	perCall := func(opts Options) float64 {
		c, err := DialOpts(fs.addr(), opts)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		val := []byte("v")
		// AllocsPerRun counts the whole process, the fake server's side
		// of the round trip included; that side is the same for both.
		return testing.AllocsPerRun(500, func() {
			if _, err := c.Put(kvserver.ClassInteractive, 1, val); err != nil {
				t.Fatal(err)
			}
		})
	}
	untimed := perCall(Options{})
	timed := perCall(Options{RequestTimeout: 5 * time.Second})
	if timed > untimed+0.5 {
		t.Fatalf("a round trip with a RequestTimeout allocates %.1f, without %.1f: the timer is not reused", timed, untimed)
	}
}

// TestWriteBufferDropsHighWaterMark: the encode buffer is reused from
// one request to the next, but one oversized request must not pin its
// size on the client for life.
func TestWriteBufferDropsHighWaterMark(t *testing.T) {
	fs := newFakeServer(t, func(req kvserver.Request) ([]byte, bool) {
		if req.Op == kvserver.OpMultiPut {
			out, err := kvserver.AppendMultiPutResponse(nil, req.ID, len(req.KVs))
			if err != nil {
				panic(err)
			}
			return out, false
		}
		return okBool(req.ID), false
	})
	c, err := Dial(fs.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wbufCap := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return cap(c.wbuf)
	}
	if _, err := c.Put(kvserver.ClassBulk, 1, make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	steady := wbufCap()
	if steady < 64<<10 {
		t.Fatalf("a 64 KiB request left a %d-byte encode buffer: steady traffic would reallocate per request", steady)
	}
	kvs := make([]shardedkv.Pair, 5)
	for i := range kvs {
		kvs[i] = shardedkv.Pair{Key: uint64(i), Value: make([]byte, kvserver.MaxValueLen)}
	}
	if _, err := c.MultiPut(kvserver.ClassBulk, kvs); err != nil {
		t.Fatal(err)
	}
	if got := wbufCap(); got > 4<<20 {
		t.Fatalf("a 5 MiB request left a %d-byte encode buffer on the client", got)
	}
	if _, err := c.Put(kvserver.ClassBulk, 1, []byte("small")); err != nil {
		t.Fatal(err)
	}
	if got := wbufCap(); got > 4<<20 {
		t.Fatalf("encode buffer is %d bytes after a small request", got)
	}
}
