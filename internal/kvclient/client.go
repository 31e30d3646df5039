// Package kvclient is the concurrent, pipelining client for the
// kvserver binary protocol (docs/protocol.md). One Client multiplexes
// one TCP connection: any number of goroutines may issue requests
// concurrently, each call blocks only its own goroutine, and requests
// overlap on the wire (the response matcher pairs frames back to
// callers by request id, so responses may be consumed out of order
// even though today's server answers in order).
//
// Every operation takes the SLO class it should run under on the
// server — kvserver.ClassInteractive maps to big-class lock admission,
// kvserver.ClassBulk to little-class plus the bulk admission gate — so
// the caller's latency contract rides on each request, not on any
// connection-level state.
//
// Buffer ownership: every response frame is read into a buffer of its
// own, and that buffer belongs to the call it completes. The values Get,
// MultiGet and Range return are not copies — they alias that frame
// (capacity clipped to length, so an append reallocates rather than
// running into the neighbouring pair). They stay valid for as long as
// the caller holds them and no later call touches them, but holding ONE
// value keeps its whole frame reachable: a caller that retains a few
// values out of a large scan should copy them. Request values (Put,
// MultiPut) are only read, and not retained after the call returns.
package kvclient

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/kvserver"
	"repro/internal/shardedkv"
)

// ErrClosed is returned by calls made after an explicit Close. It is
// NOT retryable: the caller asked for the teardown. A connection that
// failed underneath the client instead poisons it with a
// *RetryableError carrying the transport cause.
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
	// RequestTimeout bounds each round trip (write deadline on the
	// send, response wait on the receive). A request that times out
	// fails with a *RetryableError and tears the connection down — on
	// a pipelined connection a stuck response stalls everything behind
	// it, so the conn is not worth keeping. 0 means no deadline.
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

// IsAdmissionRejected reports whether err is StatusErrAdmission, a
// bulk request shed at the admission gate. The server no longer sends
// it (the gate makes bulk requests wait); the status stays because
// wire constants are append-only.
func IsAdmissionRejected(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Status == kvserver.StatusErrAdmission
}

// pending is one in-flight call's completion slot. Slots are pooled,
// and with a RequestTimeout the slot carries the call's deadline timer
// too: built on first use and Reset per call, so a timed client
// allocates no timer per round trip.
type pending struct {
	ch    chan result
	timer *time.Timer
}

type result struct {
	resp  kvserver.Response
	frame []byte // backing array of resp.Payload (owned by the receiver)
	err   error
}

// Client is a multiplexed connection to one kvserver. Safe for
// concurrent use; create with Dial, release with Close.
type Client struct {
	timeout time.Duration

	mu      sync.Mutex // guards conn writes, nextID, pending, closed
	conn    net.Conn
	bw      *bufio.Writer
	nextID  uint64
	pending map[uint64]*pending
	closed  bool
	readErr error
	wbuf    []byte

	pool sync.Pool // *pending
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
	c := &Client{
		timeout: opts.RequestTimeout,
		conn:    conn,
		bw:      bufio.NewWriterSize(conn, 64<<10),
		pending: make(map[uint64]*pending),
	}
	c.pool.New = func() any { return &pending{ch: make(chan result, 1)} }
	go c.readLoop()
	return c, nil
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

// Close tears the connection down; in-flight calls fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	err := c.conn.Close()
	c.failAllLocked(ErrClosed)
	c.mu.Unlock()
	return err
}

// failAllLocked completes every pending call with err (c.mu held).
func (c *Client) failAllLocked(err error) {
	for id, p := range c.pending {
		delete(c.pending, id)
		p.ch <- result{err: err}
	}
}

// teardown poisons the client after a transport failure: every pending
// call — and every future call — fails with a *RetryableError carrying
// cause. No call is ever stranded: a pending slot either gets its
// response from readLoop or a failure token here, never neither.
// Idempotent; an explicit Close that got there first wins (ErrClosed).
func (c *Client) teardown(cause error) {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		c.readErr = &RetryableError{Err: cause}
		c.conn.Close()
	}
	if c.readErr == nil {
		c.readErr = ErrClosed
	}
	c.failAllLocked(c.readErr)
	c.mu.Unlock()
}

// readLoop is the response matcher: it owns the read side, pairing
// response frames to pending calls by id. Each frame is read into a
// fresh buffer whose ownership passes to the completed call — the
// decoded values the call returns alias it, so this must never become a
// buffer the loop reuses.
func (c *Client) readLoop() {
	// A buffer that holds a whole 39 KB scan response, unlike the
	// server's small one (kvserver.Server.handle): read through 4 KiB, a
	// response between 4 and 64 KiB takes two reads, the first leaving
	// most of it in the socket, and scan-mixed then ran bimodal — 44 k to
	// 69 k ops/s from run to run where this size holds 62 k to 66 k. The
	// price is that a response over 64 KiB is copied twice.
	br := bufio.NewReaderSize(c.conn, 64<<10)
	for {
		frame, err := kvserver.ReadFrame(br, nil)
		if err != nil {
			c.teardown(err)
			return
		}
		resp, err := kvserver.DecodeResponse(frame)
		if err != nil {
			// The stream's framing survived but the payload did not:
			// the connection is desynchronized beyond this response's
			// caller alone. Fail everything rather than strand the one
			// call whose frame was mangled.
			c.teardown(err)
			return
		}
		c.mu.Lock()
		p := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if p != nil {
			p.ch <- result{resp: resp, frame: frame}
		}
	}
}

// roundTrip encodes req (id assigned here), pipelines it onto the
// connection, and blocks until its response arrives.
func (c *Client) roundTrip(req *kvserver.Request) (kvserver.Response, error) {
	p := c.pool.Get().(*pending)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.pool.Put(p)
		if c.readErr != nil {
			return kvserver.Response{}, c.readErr
		}
		return kvserver.Response{}, ErrClosed
	}
	c.nextID++
	req.ID = c.nextID
	buf, err := kvserver.AppendRequest(c.wbuf[:0], req)
	if err != nil {
		c.mu.Unlock()
		c.pool.Put(p)
		return kvserver.Response{}, err
	}
	// Kept for the next request unless this one was oversized.
	c.wbuf = kvserver.RetainBuf(buf)
	c.pending[req.ID] = p
	if c.timeout > 0 {
		// Bound the send too: bw.Flush runs under c.mu, so an unbounded
		// block here (peer stopped reading, send buffer full) would
		// freeze every other caller, not just this one.
		_ = c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
	}
	_, werr := c.bw.Write(buf)
	if werr == nil {
		// Flush before releasing the lock: correct pipelining would
		// only flush when no other writer is queued, but tracking that
		// costs more than the write — and concurrent callers still
		// overlap request and response on the wire.
		werr = c.bw.Flush()
	}
	c.mu.Unlock()
	if werr != nil {
		// A write error poisons the whole connection, not just this
		// call: the bufio stream may have emitted a partial frame, so
		// anything written after it would be garbage to the server.
		// teardown delivers exactly one failure token to every pending
		// slot still registered — including ours, unless the response
		// raced in first — so the receive below never blocks.
		c.teardown(werr)
	}

	var res result
	if c.timeout <= 0 {
		res = <-p.ch
	} else {
		if p.timer == nil {
			p.timer = time.NewTimer(c.timeout)
		} else {
			// Every earlier use either stopped the timer or received its
			// tick, and a Go 1.23+ timer channel holds no stale tick
			// after Stop or Reset, so the slot's timer re-arms clean.
			p.timer.Reset(c.timeout)
		}
		select {
		case res = <-p.ch:
			p.timer.Stop()
		case <-p.timer.C:
			c.mu.Lock()
			if _, registered := c.pending[req.ID]; registered {
				// Still ours: unregister so no late response or
				// teardown can deliver a token, then abandon the conn —
				// pipelined responses behind the stuck one are stuck
				// too, and a retry on this conn would queue behind them.
				delete(c.pending, req.ID)
				c.mu.Unlock()
				c.pool.Put(p)
				err := &RetryableError{Err: fmt.Errorf("kvclient: request timed out after %v", c.timeout)}
				c.teardown(err.Err)
				return kvserver.Response{}, err
			}
			// Photo finish: a deliverer already unregistered the slot,
			// so its token is on the channel (or about to be).
			c.mu.Unlock()
			res = <-p.ch
		}
	}
	c.pool.Put(p)
	if res.err != nil {
		return kvserver.Response{}, res.err
	}
	if res.resp.Status != kvserver.StatusOK {
		return res.resp, &StatusError{Status: res.resp.Status, Message: string(res.resp.Payload)}
	}
	return res.resp, nil
}

// Get reads key k under class. The value aliases the response frame,
// which this call owns (see the package doc).
func (c *Client) Get(class uint8, k uint64) ([]byte, bool, error) {
	resp, err := c.roundTrip(&kvserver.Request{Op: kvserver.OpGet, Class: class, Key: k})
	if err != nil {
		return nil, false, err
	}
	return kvserver.DecodeGetPayload(resp.Payload)
}

// Put stores k=v under class; reports insert-vs-replace. v is not
// retained after the call returns.
func (c *Client) Put(class uint8, k uint64, v []byte) (bool, error) {
	resp, err := c.roundTrip(&kvserver.Request{Op: kvserver.OpPut, Class: class, Key: k, Value: v})
	if err != nil {
		return false, err
	}
	return kvserver.DecodeBoolPayload(resp.Payload)
}

// Delete removes k under class; reports presence.
func (c *Client) Delete(class uint8, k uint64) (bool, error) {
	resp, err := c.roundTrip(&kvserver.Request{Op: kvserver.OpDelete, Class: class, Key: k})
	if err != nil {
		return false, err
	}
	return kvserver.DecodeBoolPayload(resp.Payload)
}

// MultiGet reads all keys in one request under class. The values alias
// the one response frame: retaining any of them retains all of it.
func (c *Client) MultiGet(class uint8, keys []uint64) ([][]byte, []bool, error) {
	resp, err := c.roundTrip(&kvserver.Request{Op: kvserver.OpMultiGet, Class: class, Keys: keys})
	if err != nil {
		return nil, nil, err
	}
	return kvserver.DecodeMultiGetPayload(resp.Payload)
}

// MultiPut writes all pairs in one request under class; returns the
// number newly inserted.
func (c *Client) MultiPut(class uint8, kvs []shardedkv.Pair) (int, error) {
	resp, err := c.roundTrip(&kvserver.Request{Op: kvserver.OpMultiPut, Class: class, KVs: kvs})
	if err != nil {
		return 0, err
	}
	return kvserver.DecodeMultiPutPayload(resp.Payload)
}

// Range returns pairs in [lo, hi] in ascending key order, at most
// limit of them (limit 0 = the server's cap). more reports a
// truncated emission — continue from kvs[len(kvs)-1].Key+1. The values
// alias the one response frame: retaining any of them retains all of it.
func (c *Client) Range(class uint8, lo, hi uint64, limit int) (kvs []shardedkv.Pair, more bool, err error) {
	resp, err := c.roundTrip(&kvserver.Request{Op: kvserver.OpRange, Class: class, Lo: lo, Hi: hi, Limit: uint32(limit)})
	if err != nil {
		return nil, false, err
	}
	kvs, err = kvserver.DecodeRangePayload(resp.Payload)
	return kvs, resp.Flags&kvserver.FlagMore != 0, err
}

// Flush drives the server-side durability barrier (meaningful when the
// server runs with a write-ahead log): bulk writes acked before it are
// durable once it returns nil.
func (c *Client) Flush(class uint8) error {
	_, err := c.roundTrip(&kvserver.Request{Op: kvserver.OpFlush, Class: class})
	return err
}

// Stats fetches the server's aggregate stats.
func (c *Client) Stats() (kvserver.ServerStats, error) {
	var st kvserver.ServerStats
	resp, err := c.roundTrip(&kvserver.Request{Op: kvserver.OpStats, Class: kvserver.ClassInteractive})
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(resp.Payload, &st); err != nil {
		return st, fmt.Errorf("kvclient: stats payload: %w", err)
	}
	return st, nil
}
