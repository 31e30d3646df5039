package kvserver

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/shardedkv"
	"repro/internal/stats"
)

// Config configures a Server.
type Config struct {
	// Store is the served store (required).
	Store *shardedkv.Store
	// Async, if non-nil, routes operations through the combining
	// pipeline instead of per-op locking: interactive requests elect
	// and combine, bulk requests enqueue and park. It must wrap Store.
	Async *shardedkv.AsyncStore
	// SLOInteractive and SLOBulk are the per-class latency SLOs. A
	// positive value wraps each request of that class in an SLO epoch
	// (EpochStart/EpochEnd, epoch id = lock class), and 0 disables
	// epochs for that class. Only SLOBulk steers the lock: bulk
	// requests run little-class, so their epochs feed the reorder
	// window ASL shard locks stand by for. Interactive requests run
	// big-class, which never waits on a window (locks.ASLOn.Lock) and
	// never feeds the controller (core.Worker.EpochEnd), so
	// SLOInteractive changes no lock decision.
	SLOInteractive, SLOBulk time.Duration
	// Admission bounds in-flight bulk operations (see AdmissionConfig;
	// the zero value enables the gate with defaults, BulkPerShard < 0
	// disables it).
	Admission AdmissionConfig
}

// Server serves the binary protocol over TCP. One goroutine per
// connection decodes, executes and responds in request order;
// concurrency across the store comes from concurrent connections.
// Each connection owns one core.Worker per lock class, and every
// request runs on the worker of its wire class byte's lock class, so
// one connection may interleave interactive and bulk operations and
// each still reaches the shard lock under its own class.
type Server struct {
	// st answers placement queries (ShardOf, NumShards); kv
	// is the operation surface — the plain store, or the combining
	// pipeline when Config.Async is set. Every request path goes
	// through kv, so the server is front-end-agnostic past New.
	st *shardedkv.Store
	kv shardedkv.KV
	// slo is the epoch SLO per lock class (0: no epoch).
	slo [2]int64
	adm *admission

	ln     net.Listener
	closed atomic.Bool
	wg     sync.WaitGroup

	mu        sync.Mutex
	conns     map[*serverConn]struct{}
	retired   *stats.ClassedRecorder // recorders of closed connections
	accepted  atomic.Uint64
	errs      [2]atomic.Uint64 // error responses by class
	badConns  atomic.Uint64    // connections dropped for protocol violations
	truncates atomic.Uint64    // Range responses clamped to MaxRangePairs
}

// New builds a server over cfg.Store (and cfg.Async when set).
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("kvserver: Config.Store is required")
	}
	if cfg.Async != nil && cfg.Async.Store() != cfg.Store {
		return nil, errors.New("kvserver: Config.Async does not wrap Config.Store")
	}
	kv := shardedkv.KV(cfg.Store)
	if cfg.Async != nil {
		kv = cfg.Async
	}
	return &Server{
		st:      cfg.Store,
		kv:      kv,
		slo:     [2]int64{core.Big: int64(cfg.SLOInteractive), core.Little: int64(cfg.SLOBulk)},
		adm:     newAdmission(cfg.Admission, cfg.Store.NumShards()),
		conns:   make(map[*serverConn]struct{}),
		retired: stats.NewClassedRecorder(),
	}, nil
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts accepting in a
// background goroutine. Use Addr for the bound address and Close to
// shut down.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the bound listener address (nil before Listen).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close shuts the server down gracefully: stop accepting, let every
// connection finish its in-flight request (read sides are closed, so
// handlers fall out of their read loop after responding), and wait for
// all handlers to return. Safe to call more than once.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Lock()
	for sc := range s.conns {
		// Closing only the read side lets the handler finish writing
		// its current response before it notices and exits.
		if tc, ok := sc.c.(*net.TCPConn); ok {
			tc.CloseRead()
		} else {
			sc.c.Close()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed (Close) or fatal
		}
		sc := newServerConn(c)
		// Registration re-checks closed under the same mutex Close
		// iterates under: Close sets the flag BEFORE it walks the
		// conn set, so either this conn lands in the walk (and gets
		// its read side closed) or it observes the flag here and
		// never starts — a conn accepted concurrently with Close can
		// not slip past both and leave Close stuck in wg.Wait.
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		s.accepted.Add(1)
		s.wg.Add(1)
		go s.handle(sc)
	}
}

// serverConn is one connection's state. rec is guarded by mu: the
// handler records into it, Stats() snapshots it concurrently.
type serverConn struct {
	c   net.Conn
	mu  sync.Mutex
	rec *stats.ClassedRecorder
	// frame and out are the handler's request and response buffers,
	// reused from one request to the next (handler-only, no lock).
	frame, out []byte
	// ws holds the connection's workers, one per lock class, indexed
	// by core.Class (handler-only, no lock).
	ws [2]*core.Worker
	// rf is the Range response under construction and addPair its add
	// method, bound once here: built per request, the frame and the
	// method value the store calls would be two heap objects per scan
	// (handler-only, no lock).
	rf      rangeFrame
	addPair func(k uint64, v []byte) bool
}

// newServerConn returns the state of connection c with its two
// workers.
func newServerConn(c net.Conn) *serverConn {
	sc := &serverConn{
		c:   c,
		rec: stats.NewClassedRecorder(),
		ws: [2]*core.Worker{
			core.Big:    core.NewWorker(core.WorkerConfig{Class: core.Big}),
			core.Little: core.NewWorker(core.WorkerConfig{Class: core.Little}),
		},
	}
	sc.addPair = sc.rf.add
	return sc
}

func (sc *serverConn) record(class core.Class, latencyNs int64, ops uint64) {
	sc.mu.Lock()
	sc.rec.RecordBatch(class, latencyNs, ops)
	sc.mu.Unlock()
}

// requestReadBuf sizes the bufio.Reader a connection's requests are
// read through: room for length prefixes and small frames (45 pipelined
// 90-byte requests still arrive in one read), and deliberately no more.
// bufio hands a Read at least as large as its buffer straight to the
// connection, so ReadFrame's io.ReadFull lands a large request body in
// its frame with one copy, kernel to frame, where a 64 KiB buffer
// slurped up to 64 KiB of every large body first and copied it a second
// time. The price is one more read call for a request between 4 and
// 64 KiB. The client does not make this trade (its reader in
// kvclient.DialOpts).
const requestReadBuf = 4 << 10

// handle runs one connection to completion.
func (s *Server) handle(sc *serverConn) {
	defer s.wg.Done()
	defer func() {
		sc.c.Close()
		s.mu.Lock()
		sc.mu.Lock()
		s.retired.Merge(sc.rec)
		sc.rec = stats.NewClassedRecorder()
		sc.mu.Unlock()
		delete(s.conns, sc)
		s.mu.Unlock()
	}()

	br := bufio.NewReaderSize(sc.c, requestReadBuf)
	bw := bufio.NewWriterSize(sc.c, 64<<10)

	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != Magic {
		s.badConns.Add(1)
		return
	}

	for {
		// Classic pipelining flush: only pay the syscall when about to
		// block on an empty input buffer.
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
		if !s.serveOne(sc, br, bw) {
			return
		}
	}
}

// serveOne reads one request frame from br, executes it and writes the
// response to bw (unflushed). It reports false when the connection is
// done: clean EOF, a framing violation, or a failed write.
func (s *Server) serveOne(sc *serverConn, br *bufio.Reader, bw *bufio.Writer) bool {
	var err error
	sc.frame, err = ReadFrame(br, sc.frame)
	if err != nil {
		// Clean EOF or any framing violation: drop the connection
		// (a broken length prefix poisons the whole stream — there
		// is no resynchronising inside it).
		if !errors.Is(err, io.EOF) {
			s.badConns.Add(1)
		}
		return false
	}
	req, err := DecodeRequest(sc.frame)
	if err != nil {
		// The stream is still framed (the frame read fine), so a
		// malformed PAYLOAD gets an in-stream error response.
		s.errs[lockClassOf(req.Class)].Add(1)
		sc.out, err = AppendErrorResponse(sc.out[:0], req.ID, StatusErrMalformed, err.Error())
	} else {
		sc.out, err = s.execute(sc, &req, sc.out[:0])
	}
	ok := err == nil && writeAll(bw, sc.out) == nil
	// One oversized request must not pin its buffers on the connection
	// for life (see RetainBuf).
	sc.frame, sc.out = RetainBuf(sc.frame), RetainBuf(sc.out)
	return ok
}

func writeAll(bw *bufio.Writer, b []byte) error {
	_, err := bw.Write(b)
	return err
}

// lockClassOf maps the wire class byte to the lock class: interactive
// requests act big (lock fast path, elect/combine/spin), bulk requests
// act little (reorder standby, enqueue/park).
func lockClassOf(class uint8) core.Class {
	if class == ClassBulk {
		return core.Little
	}
	return core.Big
}

// execute runs one request and appends its response frame to out. The
// error return is for encoding failures only (they poison the stream);
// per-request errors become error-status responses.
func (s *Server) execute(sc *serverConn, req *Request, out []byte) ([]byte, error) {
	if s.closed.Load() {
		return AppendErrorResponse(out, req.ID, StatusErrShutdown, StatusText(StatusErrShutdown))
	}
	lc := lockClassOf(req.Class)

	// Stats is an admin op: no class mapping, no gate, no recording.
	if req.Op == OpStats {
		body, err := json.Marshal(s.Stats())
		if err != nil {
			return AppendErrorResponse(out, req.ID, StatusErrMalformed, err.Error())
		}
		return AppendStatsResponse(out, req.ID, body)
	}

	// Class-aware admission: bulk ops pass the bounded gate,
	// interactive ops bypass it.
	if s.adm != nil && req.Class == ClassBulk {
		gi := s.adm.global()
		switch req.Op {
		case OpGet, OpPut, OpDelete:
			gi = s.st.ShardOf(req.Key)
		}
		defer s.adm.exit(s.adm.enter(gi))
	}

	// The request runs on its lock class's worker, whose class steers
	// the shard lock's admission policy, combiner election,
	// spin-vs-park waiting, the sync policy and the CSPad keying. An
	// SLO-configured class additionally runs inside an epoch whose id
	// is the lock class.
	w, slo := sc.ws[lc], s.slo[lc]
	if slo > 0 {
		w.EpochStart(int(lc))
	}
	start := w.Now()

	var encErr error
	var kvErr error
	ops := uint64(1)
	switch req.Op {
	case OpGet:
		v, ok := s.kv.Get(w, req.Key)
		out, encErr = AppendGetResponse(out, req.ID, v, ok)
	case OpPut:
		// The decoded value aliases the connection's frame buffer,
		// which the next ReadFrame reuses. The store borrows values for
		// the call and copies what its engine keeps, so the value goes
		// in as decoded.
		ok, werr := s.kv.Put(w, req.Key, req.Value)
		if werr != nil {
			kvErr = werr
		} else {
			out, encErr = AppendBoolResponse(out, req.ID, ok)
		}
	case OpDelete:
		ok, werr := s.kv.Delete(w, req.Key)
		if werr != nil {
			kvErr = werr
		} else {
			out, encErr = AppendBoolResponse(out, req.ID, ok)
		}
	case OpMultiGet:
		vals, found := s.kv.MultiGet(w, req.Keys)
		ops = uint64(len(req.Keys))
		out, encErr = AppendMultiGetResponse(out, req.ID, vals, found)
	case OpMultiPut:
		// Borrowed for the call, as Put's value is.
		inserted, werr := s.kv.MultiPut(w, req.KVs)
		ops = uint64(len(req.KVs))
		if werr != nil {
			kvErr = werr
		} else {
			out, encErr = AppendMultiPutResponse(out, req.ID, inserted)
		}
	case OpRange:
		var pairs int
		out, pairs, encErr = s.appendRange(sc, w, req, out)
		ops = uint64(max(pairs, 1))
	case OpFlush:
		// KV.Flush is the durability barrier: on either front end it
		// group-commits every shard log when durability is configured.
		// A sync failure here is how async-acked (bulk) write errors
		// reach the wire.
		if ferr := s.kv.Flush(w); ferr != nil {
			kvErr = ferr
		} else {
			out, encErr = AppendEmptyResponse(out, req.ID)
		}
	default:
		if slo > 0 {
			w.EpochEnd(int(lc), slo)
		}
		s.errs[lc].Add(1)
		return AppendErrorResponse(out, req.ID, StatusErrUnknownOp, fmt.Sprintf("opcode 0x%02x", req.Op))
	}

	lat := w.Now() - start
	if slo > 0 {
		w.EpochEnd(int(lc), slo)
	}
	if kvErr != nil {
		// The store refused the write's durability promise (a degraded
		// shard). Reads keep serving; the client sees a retryable
		// StatusErrUnavailable, never a false ack.
		s.errs[lc].Add(1)
		return AppendErrorResponse(out, req.ID, StatusErrUnavailable, kvErr.Error())
	}
	if encErr != nil {
		// The response was too large to frame (a Range at the caps can
		// exceed MaxFrame). Report in-stream; the request itself
		// already executed.
		s.errs[lc].Add(1)
		return AppendErrorResponse(out[:0], req.ID, StatusErrTooLarge, encErr.Error())
	}
	sc.record(lc, lat, ops)
	return out, nil
}

// rangeFrame is one Range response under construction: the store's
// emission is appended to out pair by pair, and the pair count and the
// More flag are backfilled once the scan ends.
type rangeFrame struct {
	out      []byte
	start    int // offset of the frame's length prefix in out
	pairs    int
	limit    int
	more     bool // a pair past limit exists
	tooLarge bool // the next pair would carry the frame past MaxFrame
}

// add appends one pair as key u64 | vlen u32 | v. It stops the scan at
// the pair limit, and BEFORE the pair that would take the frame past
// MaxFrame, so an over-large scan never grows the connection's buffer
// beyond the limit it is about to be refused for.
func (f *rangeFrame) add(k uint64, v []byte) bool {
	if f.pairs == f.limit {
		f.more = true
		return false
	}
	if len(f.out)-f.start-4+12+len(v) > MaxFrame {
		f.tooLarge = true
		return false
	}
	f.out = binary.BigEndian.AppendUint64(f.out, k)
	f.out = appendValue(f.out, v)
	f.pairs++
	return true
}

// appendRange executes a Range and streams the emission into the
// response frame: n u32 | n × (key u64 | vlen u32 | v), as
// AppendRangeResponse lays it out, with no []Pair staged in between. The
// store calls add only after every shard lock is released, so the value
// copies are not lock hold time. It is a method of its own so that the
// callback's captured state stays out of execute: a closure over
// execute's out would move that variable to the heap on every request,
// point ops included. The frame and its bound add live on the
// connection (serverConn.rf, addPair), so a scan allocates neither. A
// scan whose encoding would exceed MaxFrame returns out as it was given,
// plus the error execute answers with StatusErrTooLarge.
func (s *Server) appendRange(sc *serverConn, w *core.Worker, req *Request, out []byte) ([]byte, int, error) {
	f := &sc.rf
	*f = rangeFrame{limit: int(req.Limit)}
	if f.limit <= 0 || f.limit > MaxRangePairs {
		f.limit = MaxRangePairs
	}
	f.out, f.start = beginFrame(out, req.ID, StatusOK, 0)
	count := len(f.out)
	f.out = append(f.out, 0, 0, 0, 0)
	s.kv.Range(w, req.Lo, req.Hi, sc.addPair)
	res, pairs := f.out, f.pairs
	// The buffer is the caller's from here on; the connection keeps no
	// second reference to it.
	f.out = nil
	if f.tooLarge {
		return res[:f.start], pairs, wireErr("range response exceeds MaxFrame %d after %d pairs", MaxFrame, pairs)
	}
	if f.more {
		s.truncates.Add(1)
		res[f.start+4+headerLen-1] |= FlagMore
	}
	binary.BigEndian.PutUint32(res[count:], uint32(pairs))
	res, err := endFrame(res, f.start)
	return res, pairs, err
}

// ClassServerStats is one SLO class's server-side view.
type ClassServerStats struct {
	// Ops counts completed operations (batch elements and scanned
	// pairs count individually).
	Ops uint64 `json:"ops"`
	// Errors counts error-status responses sent to this class.
	Errors uint64 `json:"errors"`
	// P50Ns/P99Ns are request-latency percentiles in nanoseconds,
	// measured around store execution (decode and socket time
	// excluded).
	P50Ns int64 `json:"p50_ns"`
	P99Ns int64 `json:"p99_ns"`
}

// ServerStats is the server's aggregate view, JSON-encoded verbatim as
// the Stats response body.
type ServerStats struct {
	Interactive ClassServerStats `json:"interactive"`
	Bulk        ClassServerStats `json:"bulk"`
	// BulkInFlight is the admission gate's current depth; BulkWaited
	// counts bulk ops that blocked for a slot. BulkRejected is always
	// 0: the gate no longer sheds (the field stays for readers of the
	// stats body).
	BulkInFlight int64  `json:"bulk_inflight"`
	BulkWaited   uint64 `json:"bulk_waited"`
	BulkRejected uint64 `json:"bulk_rejected"`
	// Conns is the live connection count; Accepted the lifetime total;
	// BadConns the connections dropped for protocol violations.
	Conns    int    `json:"conns"`
	Accepted uint64 `json:"accepted"`
	BadConns uint64 `json:"bad_conns"`
	// RangeTruncations counts Range responses clamped to
	// MaxRangePairs.
	RangeTruncations uint64 `json:"range_truncations"`
	// Shards is the served store's shard count.
	Shards int `json:"shards"`
}

// Stats snapshots the server's counters: per-class ops and latency
// percentiles merged across live and closed connections, admission
// depths and outcomes, and the store's shard layout.
func (s *Server) Stats() ServerStats {
	merged := stats.NewClassedRecorder()
	s.mu.Lock()
	merged.Merge(s.retired)
	live := len(s.conns)
	for sc := range s.conns {
		sc.mu.Lock()
		merged.Merge(sc.rec)
		sc.mu.Unlock()
	}
	s.mu.Unlock()

	st := ServerStats{
		Interactive: ClassServerStats{
			Ops:    merged.Ops(core.Big),
			Errors: s.errs[core.Big].Load(),
			P50Ns:  merged.ByClass(core.Big).P50(),
			P99Ns:  merged.ByClass(core.Big).P99(),
		},
		Bulk: ClassServerStats{
			Ops:    merged.Ops(core.Little),
			Errors: s.errs[core.Little].Load(),
			P50Ns:  merged.ByClass(core.Little).P50(),
			P99Ns:  merged.ByClass(core.Little).P99(),
		},
		Conns:            live,
		Accepted:         s.accepted.Load(),
		BadConns:         s.badConns.Load(),
		RangeTruncations: s.truncates.Load(),
		Shards:           s.st.NumShards(),
	}
	if s.adm != nil {
		a := s.adm.stats()
		st.BulkInFlight = a.InFlight
		st.BulkWaited = a.Waited
	}
	return st
}
