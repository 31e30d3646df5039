package kvclient

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kvserver"
)

// Tests of calls taking turns on one connection. Every call runs on a
// goroutine of its own and is awaited against a deadline: each call
// hands the connection on to the next when it returns, a call stranded
// on the connection or behind another call would hang the test, and
// the deadline turns that hang into a failure.

const handOffDeadline = 10 * time.Second

// goCall runs call on a goroutine of its own; await collects its error.
func goCall(call func() error) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- call() }()
	return ch
}

// await returns the error of a call started by goCall, failing the test
// if the call has not returned by deadline.
func await(t *testing.T, ch <-chan error, deadline time.Time) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(time.Until(deadline)):
		t.Fatal("a call is stranded: no completion by the test's deadline")
		return nil
	}
}

// waitFor spins until n requests reached the server.
func waitFor(t *testing.T, got *atomic.Int32, n int32) {
	t.Helper()
	for deadline := time.Now().Add(handOffDeadline); got.Load() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests reached the server", got.Load(), n)
		}
	}
}

// waitQueued waits until n calls are parked on a Client's call lock,
// queued behind the call that holds the connection. It reads every
// goroutine's stack: a queued call is one parked in sync.Mutex.Lock
// under roundTrip.
func waitQueued(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(handOffDeadline); ; time.Sleep(time.Millisecond) {
		queued := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[sync.Mutex.Lock") && strings.Contains(g, "kvclient.(*Client).roundTrip") {
				queued++
			}
		}
		if queued >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d calls queued behind the call in flight", queued, n)
		}
	}
}

// keyValue is the value the fake servers answer a Get of k with, so
// each caller can tell its own response from a neighbour's.
func keyValue(k uint64) []byte { return binary.BigEndian.AppendUint64([]byte("value of "), k) }

func getResponse(out []byte, req kvserver.Request) []byte {
	out, err := kvserver.AppendGetResponse(out, req.ID, keyValue(req.Key), true)
	if err != nil {
		panic(err)
	}
	return out
}

// getCall is a Get of k that fails unless it returns k's own value.
func getCall(c *Client, k uint64) func() error {
	return func() error {
		v, ok, err := c.Get(kvserver.ClassInteractive, k)
		if err == nil && (!ok || !bytes.Equal(v, keyValue(k))) {
			err = fmt.Errorf("Get(%d) returned %q: another call's response", k, v)
		}
		return err
	}
}

// TestConcurrentCallersReadTheirOwnValues: 8 goroutines share one
// Client, 50 Gets each of keys no other goroutine asks for. Calls take
// turns on the connection, and each must return its own key's value,
// never a neighbour's.
func TestConcurrentCallersReadTheirOwnValues(t *testing.T) {
	const callers, calls = 8, 50
	fs := newFakeServer(t, func(req kvserver.Request) ([]byte, bool) { return getResponse(nil, req), false })
	c, err := Dial(fs.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	deadline := time.Now().Add(handOffDeadline)
	var done [callers]<-chan error
	for i := range done {
		done[i] = goCall(func() error {
			for n := 0; n < calls; n++ {
				if err := getCall(c, uint64(n*callers+i))(); err != nil {
					return err
				}
			}
			return nil
		})
	}
	for i, ch := range done {
		if err := await(t, ch, deadline); err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
}

// TestResponseIDMismatchTearsDown: a response whose id is not the
// call's means the stream is out of step, so the call fails retryably
// and the connection is torn down. The error is sticky: the next call
// fails with the same error without sending anything.
func TestResponseIDMismatchTearsDown(t *testing.T) {
	var got atomic.Int32
	fs := newFakeServer(t, func(req kvserver.Request) ([]byte, bool) {
		got.Add(1)
		req.ID++ // answer as if to the next request
		return getResponse(nil, req), false
	})
	c, err := Dial(fs.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	deadline := time.Now().Add(handOffDeadline)
	first := await(t, goCall(getCall(c, 1)), deadline)
	if !IsRetryable(first) || !strings.Contains(first.Error(), "out of step") {
		t.Fatalf("call answered with another id: %v, want a retryable out-of-step error", first)
	}
	next := await(t, goCall(getCall(c, 2)), deadline)
	if next == nil || next.Error() != first.Error() {
		t.Fatalf("call after the mismatch: %v, want the sticky %v", next, first)
	}
	if n := got.Load(); n != 1 {
		t.Fatalf("the server saw %d requests, want 1: a torn-down client sent again", n)
	}
}

// TestReaderTimeoutFailsFollowers: the call in flight bounds its read by
// its own RequestTimeout. Seven more calls start half a timeout later
// and queue behind it, so its deadline passes well before any of theirs
// could; its timeout must fail all of them, retryably, with the
// deadline as the cause.
func TestReaderTimeoutFailsFollowers(t *testing.T) {
	const timeout = 600 * time.Millisecond
	var got atomic.Int32
	fs := newFakeServer(t, func(kvserver.Request) ([]byte, bool) {
		got.Add(1)
		return nil, false // never answer
	})
	c, err := DialOpts(fs.addr(), Options{RequestTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	deadline := time.Now().Add(handOffDeadline)
	calls := []<-chan error{goCall(getCall(c, 0))}
	waitFor(t, &got, 1)
	time.Sleep(timeout / 2)
	for k := 1; k < 8; k++ {
		calls = append(calls, goCall(getCall(c, uint64(k))))
	}
	for k, ch := range calls {
		err := await(t, ch, deadline)
		if !IsRetryable(err) || !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("call %d: %v, want a retryable error caused by the reader's read deadline", k, err)
		}
	}
}

// TestCloseDuringReadFailsAllWithErrClosed: Close while one call is
// blocked reading a response that never comes and seven more are
// queued behind it. Every call, the one in flight included, fails with
// ErrClosed.
func TestCloseDuringReadFailsAllWithErrClosed(t *testing.T) {
	const callers = 8
	var got atomic.Int32
	fs := newFakeServer(t, func(kvserver.Request) ([]byte, bool) {
		got.Add(1)
		return nil, false // never answer
	})
	c, err := Dial(fs.addr())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(handOffDeadline)
	calls := []<-chan error{goCall(getCall(c, 0))}
	waitFor(t, &got, 1)
	for k := 1; k < callers; k++ {
		calls = append(calls, goCall(getCall(c, uint64(k))))
	}
	waitQueued(t, callers-1)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for k, ch := range calls {
		if err := await(t, ch, deadline); !errors.Is(err, ErrClosed) {
			t.Errorf("call %d: %v, want ErrClosed", k, err)
		}
	}
}

// TestClientOwnsNoGoroutine: callers read their own responses, so a
// Client runs no goroutine — after Dial and 100 calls the process has
// exactly the goroutines it had before the Dial. The server serves the
// connection on its accepting goroutine, so the count is the client's
// alone.
func TestClientOwnsNoGoroutine(t *testing.T) {
	fs := newInlineServer(t, echo)
	before := runtime.NumGoroutine()
	c, err := Dial(fs.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	calls := goCall(func() error {
		for k := uint64(0); k < 100; k++ {
			if _, _, err := c.Get(kvserver.ClassInteractive, k); err != nil {
				return err
			}
		}
		return nil
	})
	if err := await(t, calls, time.Now().Add(handOffDeadline)); err != nil {
		t.Fatal(err)
	}
	// The calls' goroutine, and goroutines of earlier tests, may still be
	// exiting; none may remain beyond them.
	after := runtime.NumGoroutine()
	for settle := time.Now().Add(time.Second); after > before && time.Now().Before(settle); time.Sleep(10 * time.Millisecond) {
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Fatalf("%d goroutines before Dial, %d after it and 100 calls: the Client owns a goroutine", before, after)
	}
}
