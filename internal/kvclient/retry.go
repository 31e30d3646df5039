package kvclient

import (
	"errors"
	"net"
	"sync"
	"time"

	"repro/internal/kvserver"
	"repro/internal/prng"
	"repro/internal/shardedkv"
)

// RetryConfig tunes a Retrying client. Zero values take the defaults
// noted per field.
type RetryConfig struct {
	// MaxAttempts bounds tries per operation, first included. Default 5.
	MaxAttempts int
	// BaseBackoff is the pre-jitter sleep before the first retry; it
	// doubles per attempt up to MaxBackoff. Defaults 5ms / 500ms.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// RequestTimeout is each underlying connection's per-request bound
	// (Options.RequestTimeout). 0 means none.
	RequestTimeout time.Duration
	// DialTimeout bounds each reconnect attempt (the server may be
	// mid-restart; DialRetryOpts keeps knocking until this elapses).
	// Default 2s.
	DialTimeout time.Duration
	// Seed feeds the backoff jitter; a fixed seed makes a chaos run's
	// retry schedule reproducible. Default 1.
	Seed uint64
	// WrapConn is passed to every dialed connection (fault injection).
	WrapConn func(net.Conn) net.Conn
}

// Retrying is a self-healing client: it owns at most one live Client,
// replays retryable failures (IsRetryable) with exponential backoff and
// jitter, and redials after transport errors — including a kill -9'd
// and restarted server. Safe for concurrent use: each goroutine's
// operation retries independently against the shared connection, and
// operations take turns on it as Client's calls do, one request in
// flight, a queued operation waiting out the deadline of the one ahead
// (see the package doc). Goroutines whose requests should overlap each
// hold a Retrying of their own.
//
// Retrying writes is safe here because a transport failure leaves the
// write's outcome unknown either way, and the store's writes are
// last-writer-wins: a duplicate apply of the same value is
// indistinguishable from a single one. A caller that cannot accept
// "maybe applied twice" must not retry — use Client directly.
//
// Returned values carry Client's ownership (see the package doc): they
// alias the response frame of the attempt that succeeded, which a retry
// neither reuses nor touches. Nothing here keeps a result past the call.
type Retrying struct {
	addr string
	cfg  RetryConfig

	mu       sync.Mutex
	c        *Client // current live client; nil = dial on next use
	gen      uint64  // connection generation: bumped per successful dial
	rng      *prng.SplitMix64
	closed   bool
	attempts int    // attempts the most recent do() used
	lastGen  uint64 // generation the most recent op completed on
}

// NewRetrying wraps addr. No connection is made until the first
// operation (the server may not be up yet).
func NewRetrying(addr string, cfg RetryConfig) *Retrying {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 5 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 500 * time.Millisecond
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &Retrying{addr: addr, cfg: cfg, rng: prng.NewSplitMix64(cfg.Seed)}
}

// Close tears down the current connection and refuses further use.
func (r *Retrying) Close() error {
	r.mu.Lock()
	r.closed = true
	c := r.c
	r.c = nil
	r.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}

// client returns the live client and its connection generation,
// dialing a fresh one (and bumping the generation) if needed.
func (r *Retrying) client() (*Client, uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, 0, ErrClosed
	}
	if r.c != nil {
		return r.c, r.gen, nil
	}
	opts := Options{RequestTimeout: r.cfg.RequestTimeout, WrapConn: r.cfg.WrapConn}
	c, err := DialRetryOpts(r.addr, r.cfg.DialTimeout, opts)
	if err != nil {
		return nil, 0, err
	}
	r.c = c
	r.gen++
	return c, r.gen, nil
}

// invalidate drops c as the live client (if it still is) and closes it.
// Only transport-level failures invalidate; a StatusError rode a
// perfectly healthy connection.
func (r *Retrying) invalidate(c *Client) {
	r.mu.Lock()
	if r.c == c {
		r.c = nil
	}
	r.mu.Unlock()
	c.Close()
}

// backoff sleeps before retry attempt n (1-based): min(MaxBackoff,
// BaseBackoff<<(n-1)) scaled by a jitter factor in [0.5, 1.5) so a
// fleet of clients hitting the same failed server does not reconnect
// in lockstep.
func (r *Retrying) backoff(n int) {
	d := r.cfg.BaseBackoff << uint(n-1)
	if d <= 0 || d > r.cfg.MaxBackoff {
		d = r.cfg.MaxBackoff
	}
	r.mu.Lock()
	j := r.rng.Uint64()
	r.mu.Unlock()
	// [0.5, 1.5) of d.
	d = d/2 + time.Duration(j%uint64(d))
	time.Sleep(d)
}

// transport reports whether err poisoned the connection it rode on
// (a *RetryableError wraps teardown causes and timeouts); a
// StatusError is retryable but the conn stays good.
func transport(err error) bool {
	var se *StatusError
	return !errors.As(err, &se)
}

// do runs op with retries. op sees a live client; a retryable failure
// backs off and reruns it (redialing first when the failure was
// transport-level); anything else returns immediately.
func (r *Retrying) do(op func(c *Client) error) error {
	var last error
	for n := 0; n < r.cfg.MaxAttempts; n++ {
		r.mu.Lock()
		r.attempts = n + 1
		r.mu.Unlock()
		if n > 0 {
			r.backoff(n)
		}
		c, gen, err := r.client()
		if err != nil {
			if err == ErrClosed {
				return err
			}
			last = &RetryableError{Err: err} // dial failure: keep knocking
			continue
		}
		err = op(c)
		if err == nil {
			r.mu.Lock()
			r.lastGen = gen
			r.mu.Unlock()
			return nil
		}
		last = err
		if !IsRetryable(err) {
			return err
		}
		if transport(err) {
			r.invalidate(c)
		}
	}
	return last
}

// Attempts reports how many attempts the most recent operation used —
// 1 means it completed cleanly on the first try. A caller tracking
// write indeterminacy (the soak harness's zombie set) needs this: an
// op that retried may have left a duplicate frame in an abandoned
// connection that the server applies later. Meaningful only between a
// caller's own operations; concurrent goroutines see each other's
// counts.
func (r *Retrying) Attempts() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attempts
}

// LastGen reports the connection generation the most recent successful
// operation completed on. Two successful operations with equal LastGen
// rode the same TCP connection — hence the same server process, in
// submission order. A durability-barrier caller (the soak harness's
// bulk model) needs exactly that: a Flush only covers writes acked on
// the SAME incarnation, so acks from an older generation must not be
// promoted by a Flush that succeeded on a newer one. Meaningful only
// between a caller's own operations.
func (r *Retrying) LastGen() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastGen
}

// Get reads key k under class, retrying per the config.
func (r *Retrying) Get(class uint8, k uint64) (v []byte, ok bool, err error) {
	err = r.do(func(c *Client) error {
		var e error
		v, ok, e = c.Get(class, k)
		return e
	})
	return v, ok, err
}

// Put stores k=v under class, retrying per the config.
func (r *Retrying) Put(class uint8, k uint64, v []byte) (inserted bool, err error) {
	err = r.do(func(c *Client) error {
		var e error
		inserted, e = c.Put(class, k, v)
		return e
	})
	return inserted, err
}

// Delete removes k under class, retrying per the config.
func (r *Retrying) Delete(class uint8, k uint64) (present bool, err error) {
	err = r.do(func(c *Client) error {
		var e error
		present, e = c.Delete(class, k)
		return e
	})
	return present, err
}

// MultiGet reads keys under class, retrying per the config.
func (r *Retrying) MultiGet(class uint8, keys []uint64) (vals [][]byte, found []bool, err error) {
	err = r.do(func(c *Client) error {
		var e error
		vals, found, e = c.MultiGet(class, keys)
		return e
	})
	return vals, found, err
}

// MultiPut writes pairs under class, retrying per the config.
func (r *Retrying) MultiPut(class uint8, kvs []shardedkv.Pair) (inserted int, err error) {
	err = r.do(func(c *Client) error {
		var e error
		inserted, e = c.MultiPut(class, kvs)
		return e
	})
	return inserted, err
}

// Range scans [lo, hi] under class, retrying per the config.
func (r *Retrying) Range(class uint8, lo, hi uint64, limit int) (kvs []shardedkv.Pair, more bool, err error) {
	err = r.do(func(c *Client) error {
		var e error
		kvs, more, e = c.Range(class, lo, hi, limit)
		return e
	})
	return kvs, more, err
}

// Flush drives the server-side write/durability barrier, retrying per
// the config.
func (r *Retrying) Flush(class uint8) error {
	return r.do(func(c *Client) error { return c.Flush(class) })
}

// Stats fetches server stats, retrying per the config.
func (r *Retrying) Stats() (st kvserver.ServerStats, err error) {
	err = r.do(func(c *Client) error {
		var e error
		st, e = c.Stats()
		return e
	})
	return st, err
}
