package kvclient

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kvserver"
)

// Tests of the read side's hand-off between callers. Every call runs on
// a goroutine of its own and is awaited against a deadline: a lost
// hand-off strands calls, and the deadline turns that hang into a
// failure.

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

// keyValue is the value the hand-off servers answer a Get of k with, so
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

// byID orders held requests by id; the lowest is the caller that took
// the read side, the first to register on an idle connection.
func byID(a, b kvserver.Request) int { return cmp.Compare(a.ID, b.ID) }

// TestHandOffUnderReverseOrder: 8 concurrent callers, answered only once
// all 8 are pending, the reader's response first and the other seven
// last to first. The reader finishes first, so the read side must pass
// to a caller still waiting, which completes the rest. Three rounds on
// one Client, each starting from an idle read side.
func TestHandOffUnderReverseOrder(t *testing.T) {
	const callers, rounds = 8, 3
	var held []kvserver.Request // the server's connection goroutine only
	fs := newFakeServer(t, func(req kvserver.Request) ([]byte, bool) {
		if held = append(held, req); len(held) < callers {
			return nil, false
		}
		slices.SortFunc(held, byID)
		out := getResponse(nil, held[0])
		for i := len(held) - 1; i > 0; i-- {
			out = getResponse(out, held[i])
		}
		held = held[:0]
		return out, false
	})
	c, err := Dial(fs.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	deadline := time.Now().Add(handOffDeadline)
	for round := 0; round < rounds; round++ {
		var calls [callers]<-chan error
		for i := range calls {
			calls[i] = goCall(getCall(c, uint64(round*callers+i)))
		}
		for i, ch := range calls {
			if err := await(t, ch, deadline); err != nil {
				t.Fatalf("round %d, call %d: %v", round, i, err)
			}
		}
	}
	c.mu.Lock()
	reading, pending := c.reading, len(c.pending)
	c.mu.Unlock()
	if reading || pending != 0 {
		t.Fatalf("after every call returned: read side held %v, %d slots pending", reading, pending)
	}
}

// TestDropDuringHandOffStrandsNoCall: the reader's response arrives
// whole, then a frame torn mid body, then the connection closes. The
// reader returns its response and hands the read side on; the caller it
// handed to finds the stream broken. Each of the other seven calls gets
// exactly one retryable error, and the poisoned Client fails fast.
func TestDropDuringHandOffStrandsNoCall(t *testing.T) {
	const callers = 8
	var held []kvserver.Request // the server's connection goroutine only
	var readerKey atomic.Int64
	fs := newFakeServer(t, func(req kvserver.Request) ([]byte, bool) {
		if held = append(held, req); len(held) < callers {
			return nil, false
		}
		first := slices.MinFunc(held, byID)
		readerKey.Store(int64(first.Key))
		out := getResponse(nil, first)
		out = binary.BigEndian.AppendUint32(out, 20)
		return append(out, 1, 2, 3, 4, 5), true
	})
	c, err := Dial(fs.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	deadline := time.Now().Add(handOffDeadline)
	var calls [callers]<-chan error
	for k := range calls {
		calls[k] = goCall(getCall(c, uint64(k)))
	}
	for k, ch := range calls {
		err := await(t, ch, deadline)
		switch {
		case int64(k) == readerKey.Load():
			if err != nil {
				t.Errorf("the reader's call (key %d): %v, want its response", k, err)
			}
		case err == nil || !IsRetryable(err):
			t.Errorf("call for key %d: %v, want a retryable error", k, err)
		}
	}
	if err := await(t, goCall(getCall(c, 99)), deadline); err == nil || !IsRetryable(err) {
		t.Fatalf("call after the drop: %v, want a retryable error", err)
	}
}

// TestReaderTimeoutFailsFollowers: the caller holding the read side
// bounds its read by its own RequestTimeout. Seven followers start half
// a timeout later, so the reader's read deadline passes well before any
// follower's own timer; it must fail all of them, retryably, with the
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

// TestCloseDuringReadFailsAllWithErrClosed: Close while a caller holds
// the read side, blocked on the socket, and seven more wait behind it.
// Every call, the reader's included, fails with ErrClosed.
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
	var calls [callers]<-chan error
	for k := range calls {
		calls[k] = goCall(getCall(c, uint64(k)))
	}
	waitFor(t, &got, callers)
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
