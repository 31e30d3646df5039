// Package kvclient is the client for the kvserver binary protocol
// (docs/protocol.md). One Client owns one TCP connection and keeps one
// request in flight on it: a call holds the connection for its whole
// round trip (encode, write, read its response, decode), so concurrent
// callers on one Client take turns, and a queued call's wait is bounded
// only by the deadline of the call ahead of it. Callers that want
// requests to overlap open a Client each: the server runs one
// connection's requests one after another, so a connection is one
// competitor at the shard lock either way. Request ids are still
// assigned per connection and checked on every response.
//
// The Client runs no goroutine of its own: each caller writes its
// request and reads its own response.
//
// Every operation takes the SLO class it should run under on the
// server — kvserver.ClassInteractive maps to big-class lock admission,
// kvserver.ClassBulk to little-class (the reorder window) — so
// the caller's latency contract rides on each request, not on any
// connection-level state.
//
// Buffer ownership: a response that returns bytes — Get, MultiGet and
// Range — is read into a frame of its own, and that frame belongs to the
// call it completes. The values those calls return are not copies: they
// alias that frame (capacity clipped to length, so an append reallocates
// rather than running into the neighbouring pair). They stay valid for
// as long as the caller holds them and no later call touches them, but
// holding ONE value keeps its whole frame reachable: a caller that
// retains a few values out of a large scan should copy them. A response
// that returns no bytes — Put, Delete, MultiPut, Flush, Stats — is read
// into one buffer the Client reuses from call to call and decoded before
// the call releases the connection. An error status's message is copied
// into the error, so no error holds a frame. Request values (Put,
// MultiPut) are only read, and not retained after the call returns.
package kvclient

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/kvserver"
	"repro/internal/shardedkv"
)

// ErrClosed is returned by the call in flight during an explicit Close
// and by every call after it. It is NOT retryable: the caller asked for
// the teardown. A connection that failed underneath the client instead
// poisons it with a *RetryableError carrying the transport cause.
var ErrClosed = errors.New("kvclient: client closed")

// RetryableError marks a transport-level failure — broken or timed-out
// connection, torn response frame — after which the request's outcome
// is unknown and a fresh connection is worth trying. The write may or
// may not have been applied; callers retrying non-idempotent work own
// that ambiguity (this protocol's writes are last-writer-wins, so a
// duplicate apply is harmless).
type RetryableError struct{ Err error }

func (e *RetryableError) Error() string { return "kvclient: retryable: " + e.Err.Error() }
func (e *RetryableError) Unwrap() error { return e.Err }

// IsRetryable reports whether err is worth retrying, possibly on a new
// connection: any transport failure (*RetryableError, including
// per-request timeouts) and the server statuses that promise the
// request was not applied or will succeed later — admission (no longer
// sent), a degraded store (StatusErrUnavailable), a draining server. ErrClosed
// and hard protocol errors (malformed, too large) are not retryable.
func IsRetryable(err error) bool {
	var re *RetryableError
	if errors.As(err, &re) {
		return true
	}
	var se *StatusError
	if errors.As(err, &se) {
		switch se.Status {
		case kvserver.StatusErrAdmission, kvserver.StatusErrUnavailable, kvserver.StatusErrShutdown:
			return true
		}
		return false
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Options tunes a Client beyond the address.
type Options struct {
	// RequestTimeout bounds each round trip: one deadline on the
	// connection covers the call's write and its read. A request that
	// times out fails with a *RetryableError whose cause wraps
	// os.ErrDeadlineExceeded, and tears the connection down — its
	// response may still arrive, and the next call would read it as its
	// own. A call queued behind another waits for that call first, so
	// its wait is bounded by the deadline of the call ahead of it and
	// then by its own. 0 means no deadline.
	RequestTimeout time.Duration
	// WrapConn interposes on the dialed connection before any bytes
	// move — the seam the chaos harness uses to inject read/write
	// faults (internal/fault.WrapConn). nil means identity.
	WrapConn func(net.Conn) net.Conn
}

// StatusError is a non-OK response status from the server.
type StatusError struct {
	Status  uint8
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("kvclient: server error: %s (%s)", kvserver.StatusText(e.Status), e.Message)
}

// Client is one connection to a kvserver. Safe for concurrent use:
// calls take turns on the connection. Create with Dial, release with
// Close.
type Client struct {
	timeout time.Duration
	conn    net.Conn

	mu     sync.Mutex // held by one call for its whole round trip
	br     *bufio.Reader
	nextID uint64
	wbuf   []byte
	// rbuf is the reused response buffer of the calls whose decode
	// keeps no byte of the frame (see the package doc).
	rbuf []byte

	errMu sync.Mutex // guards err; Close takes it, never mu
	err   error      // sticky: ErrClosed or the first transport failure
}

// Dial connects to a kvserver at addr and performs the protocol
// handshake.
func Dial(addr string) (*Client, error) { return DialOpts(addr, Options{}) }

// DialOpts is Dial with Options.
func DialOpts(addr string, opts Options) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if opts.WrapConn != nil {
		conn = opts.WrapConn(conn)
	}
	if _, err := conn.Write([]byte(kvserver.Magic)); err != nil {
		conn.Close()
		return nil, err
	}
	return &Client{
		timeout: opts.RequestTimeout,
		conn:    conn,
		// A buffer that holds a whole 39 KB scan response, unlike the
		// server's small one (kvserver.Server.handle): read through 4 KiB,
		// a response between 4 and 64 KiB takes two reads, the first
		// leaving most of it in the socket, and scan-mixed then ran
		// bimodal — 44 k to 69 k ops/s from run to run where this size
		// holds 62 k to 66 k. The price is that a response over 64 KiB is
		// copied twice.
		br: bufio.NewReaderSize(conn, 64<<10),
	}, nil
}

// DialRetry dials addr, retrying on connection refusal until timeout —
// for harnesses that race a just-started server.
func DialRetry(addr string, timeout time.Duration) (*Client, error) {
	return DialRetryOpts(addr, timeout, Options{})
}

// DialRetryOpts is DialRetry with Options.
func DialRetryOpts(addr string, timeout time.Duration, opts Options) (*Client, error) {
	deadline := time.Now().Add(timeout)
	for {
		c, err := DialOpts(addr, opts)
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Close tears the connection down: the call in flight and every call
// queued behind it fail with ErrClosed. It does not wait for the call
// in flight, whose read the closed connection ends.
func (c *Client) Close() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	if c.err != nil {
		return nil
	}
	c.err = ErrClosed
	return c.conn.Close()
}

// fail poisons the client after a transport failure: cause becomes the
// sticky error, wrapped as a *RetryableError, and the connection is
// closed. It returns the sticky error, which is an earlier failure's —
// or ErrClosed after Close — if there was one.
func (c *Client) fail(cause error) error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	if c.err == nil {
		c.err = &RetryableError{Err: cause}
		c.conn.Close()
	}
	return c.err
}

// roundTrip sends req (id assigned here), reads its response and runs
// decode on it, holding the connection throughout. reuse reads the
// response into the client's reused buffer, which the next call
// overwrites: only a decode that keeps no byte of the payload may ask
// for it. Otherwise the frame is fresh, and the decoded values may alias
// it. A non-OK status is returned as a *StatusError, and decode is not
// run.
func (c *Client) roundTrip(req *kvserver.Request, reuse bool, decode func(kvserver.Response) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.errMu.Lock()
	err := c.err
	c.errMu.Unlock()
	if err != nil {
		return err
	}
	c.nextID++
	req.ID = c.nextID
	buf, err := kvserver.AppendRequest(c.wbuf[:0], req)
	if err != nil {
		return err
	}
	// Kept for the next request unless this one was oversized.
	c.wbuf = kvserver.RetainBuf(buf)
	resp, err := c.exchange(buf, req.ID, reuse)
	if err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			err = fmt.Errorf("kvclient: request timed out after %v: %w", c.timeout, err)
		}
		return c.fail(err)
	}
	if resp.Status != kvserver.StatusOK {
		return &StatusError{Status: resp.Status, Message: string(resp.Payload)}
	}
	return decode(resp)
}

// exchange writes one request frame and reads the response to id (c.mu
// held), into c.rbuf when reuse is set. Every error it returns leaves
// the stream unusable: a partial frame may have gone out, or the next
// frame in may be anyone's.
func (c *Client) exchange(frame []byte, id uint64, reuse bool) (kvserver.Response, error) {
	if c.timeout > 0 {
		_ = c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
	if _, err := c.conn.Write(frame); err != nil {
		return kvserver.Response{}, err
	}
	// Without reuse, a fresh buffer per frame: the decoded values the
	// call returns alias it, so it must never become a buffer the
	// client reuses.
	var into []byte
	if reuse {
		into = c.rbuf
	}
	in, err := kvserver.ReadFrame(c.br, into)
	if err != nil {
		return kvserver.Response{}, err
	}
	if reuse {
		c.rbuf = kvserver.RetainBuf(in)
	}
	resp, err := kvserver.DecodeResponse(in)
	if err != nil {
		return kvserver.Response{}, err
	}
	if resp.ID != id {
		return kvserver.Response{}, fmt.Errorf("kvclient: response id %d to request %d: the stream is out of step", resp.ID, id)
	}
	return resp, nil
}

// Get reads key k under class. The value aliases the response frame,
// which this call owns (see the package doc).
func (c *Client) Get(class uint8, k uint64) (v []byte, ok bool, err error) {
	err = c.roundTrip(&kvserver.Request{Op: kvserver.OpGet, Class: class, Key: k}, false, func(resp kvserver.Response) (err error) {
		v, ok, err = kvserver.DecodeGetPayload(resp.Payload)
		return err
	})
	return v, ok, err
}

// Put stores k=v under class; reports insert-vs-replace. v is not
// retained after the call returns.
func (c *Client) Put(class uint8, k uint64, v []byte) (inserted bool, err error) {
	err = c.roundTrip(&kvserver.Request{Op: kvserver.OpPut, Class: class, Key: k, Value: v}, true, func(resp kvserver.Response) (err error) {
		inserted, err = kvserver.DecodeBoolPayload(resp.Payload)
		return err
	})
	return inserted, err
}

// Delete removes k under class; reports presence.
func (c *Client) Delete(class uint8, k uint64) (present bool, err error) {
	err = c.roundTrip(&kvserver.Request{Op: kvserver.OpDelete, Class: class, Key: k}, true, func(resp kvserver.Response) (err error) {
		present, err = kvserver.DecodeBoolPayload(resp.Payload)
		return err
	})
	return present, err
}

// MultiGet reads all keys in one request under class. The values alias
// the one response frame: retaining any of them retains all of it.
func (c *Client) MultiGet(class uint8, keys []uint64) (vals [][]byte, found []bool, err error) {
	err = c.roundTrip(&kvserver.Request{Op: kvserver.OpMultiGet, Class: class, Keys: keys}, false, func(resp kvserver.Response) (err error) {
		vals, found, err = kvserver.DecodeMultiGetPayload(resp.Payload)
		return err
	})
	return vals, found, err
}

// MultiPut writes all pairs in one request under class; returns the
// number newly inserted.
func (c *Client) MultiPut(class uint8, kvs []shardedkv.Pair) (inserted int, err error) {
	err = c.roundTrip(&kvserver.Request{Op: kvserver.OpMultiPut, Class: class, KVs: kvs}, true, func(resp kvserver.Response) (err error) {
		inserted, err = kvserver.DecodeMultiPutPayload(resp.Payload)
		return err
	})
	return inserted, err
}

// Range returns pairs in [lo, hi] in ascending key order, at most
// limit of them (limit 0 = the server's cap). more reports a
// truncated emission — continue from kvs[len(kvs)-1].Key+1. The values
// alias the one response frame: retaining any of them retains all of it.
func (c *Client) Range(class uint8, lo, hi uint64, limit int) (kvs []shardedkv.Pair, more bool, err error) {
	err = c.roundTrip(&kvserver.Request{Op: kvserver.OpRange, Class: class, Lo: lo, Hi: hi, Limit: uint32(limit)}, false, func(resp kvserver.Response) (err error) {
		kvs, err = kvserver.DecodeRangePayload(resp.Payload)
		more = resp.Flags&kvserver.FlagMore != 0
		return err
	})
	return kvs, more, err
}

// Flush drives the server-side durability barrier (meaningful when the
// server runs with a write-ahead log): bulk writes acked before it are
// durable once it returns nil.
func (c *Client) Flush(class uint8) error {
	return c.roundTrip(&kvserver.Request{Op: kvserver.OpFlush, Class: class}, true, func(kvserver.Response) error { return nil })
}

// Stats fetches the server's aggregate stats.
func (c *Client) Stats() (st kvserver.ServerStats, err error) {
	err = c.roundTrip(&kvserver.Request{Op: kvserver.OpStats, Class: kvserver.ClassInteractive}, true, func(resp kvserver.Response) error {
		if err := json.Unmarshal(resp.Payload, &st); err != nil {
			return fmt.Errorf("kvclient: stats payload: %w", err)
		}
		return nil
	})
	return st, err
}
