package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/kvclient"
	"repro/internal/kvserver"
	"repro/internal/shardedkv"
	"repro/internal/wal"
)

// target is what a closed-loop caller drives: the served system through
// kvclient (the wire passes), or the shardedkv.KV value itself (the traced
// direct pass).
type target interface {
	get(k uint64) ([]byte, bool, error)
	put(k uint64, v []byte) error
	multiGet(keys []uint64) ([][]byte, []bool, error)
	multiPut(kvs []shardedkv.Pair) error
	scan(lo, hi uint64) (kvs []shardedkv.Pair, more bool, err error)
}

// wireTarget pins one kvclient connection to one SLO class.
type wireTarget struct {
	c     *kvclient.Client
	class uint8
}

func (t wireTarget) get(k uint64) ([]byte, bool, error) { return t.c.Get(t.class, k) }
func (t wireTarget) put(k uint64, v []byte) error {
	_, err := t.c.Put(t.class, k, v)
	return err
}
func (t wireTarget) multiGet(keys []uint64) ([][]byte, []bool, error) {
	return t.c.MultiGet(t.class, keys)
}
func (t wireTarget) multiPut(kvs []shardedkv.Pair) error {
	_, err := t.c.MultiPut(t.class, kvs)
	return err
}
func (t wireTarget) scan(lo, hi uint64) ([]shardedkv.Pair, bool, error) {
	return t.c.Range(t.class, lo, hi, 0)
}

// directTarget calls the KV value the way kvserver's request loop does,
// minus the socket: the per-class SLO epoch around each call. Its worker's
// base class is the caller's class, which reaches every class consumer
// exactly as the server's per-request class hint does. The store retains
// written values by reference, so its caller hands it fresh copies.
type directTarget struct {
	kv shardedkv.KV
	w  *core.Worker
}

func newDirectTarget(kv shardedkv.KV, class int) directTarget {
	return directTarget{kv: kv, w: core.NewWorker(core.WorkerConfig{Class: core.Class(class)})}
}

func (t directTarget) enter() { t.w.EpochStart(int(t.w.BaseClass())) }

func (t directTarget) leave() {
	c := t.w.BaseClass()
	t.w.EpochEnd(int(c), int64(classSLO[c]))
}

func (t directTarget) get(k uint64) ([]byte, bool, error) {
	t.enter()
	v, ok := t.kv.Get(t.w, k)
	t.leave()
	return v, ok, nil
}

func (t directTarget) put(k uint64, v []byte) error {
	t.enter()
	_, err := t.kv.Put(t.w, k, v)
	t.leave()
	return err
}

func (t directTarget) multiGet(keys []uint64) ([][]byte, []bool, error) {
	t.enter()
	vals, ok := t.kv.MultiGet(t.w, keys)
	t.leave()
	return vals, ok, nil
}

func (t directTarget) multiPut(kvs []shardedkv.Pair) error {
	t.enter()
	_, err := t.kv.MultiPut(t.w, kvs)
	t.leave()
	return err
}

func (t directTarget) scan(lo, hi uint64) ([]shardedkv.Pair, bool, error) {
	kvs := make([]shardedkv.Pair, 0, 64)
	more := false
	t.enter()
	t.kv.Range(t.w, lo, hi, func(k uint64, v []byte) bool {
		if len(kvs) == kvserver.MaxRangePairs {
			more = true
			return false
		}
		kvs = append(kvs, shardedkv.Pair{Key: k, Value: v})
		return true
	})
	t.leave()
	return kvs, more, nil
}

// ledger is what the two callers share for the output checks: per key the
// last sequence its single writer saw acknowledged, per class the last
// sequence issued. A read must return a value at least as new as what was
// acknowledged before it was sent and no newer than what has been issued.
type ledger struct {
	acked  []atomic.Uint64
	issued [2]atomic.Uint64
}

// Phases of a pass, read by the callers before every request.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// caller is one closed-loop client: one request in flight, one class.
type caller struct {
	wl     *workload
	class  int
	tgt    target
	gen    *opGen
	led    *ledger
	tr     *tracer
	root   spanName
	phase  *atomic.Int32
	stderr io.Writer

	// retains is set when the target keeps written values by reference:
	// each write then gets a fresh copy, made before the call is timed (the
	// server makes the same copy outside shardedkv).
	retains bool

	seq    uint64
	vals   [maxBatch][]byte
	pairs  [maxBatch]shardedkv.Pair
	before [maxBatch]uint64

	lat        []int64
	attempted  uint64
	failed     uint64
	overSLO    uint64
	kinds      [numOpKinds]uint64
	complaints int
}

func (c *caller) fail(format string, args ...any) bool {
	if c.complaints < 5 {
		c.complaints++
		fmt.Fprintf(c.stderr, "check failed (%s %s): %s\n", c.wl.name, classNames[c.class], fmt.Sprintf(format, args...))
	}
	return false
}

// nextSeq issues the next write sequence of this caller's class.
func (c *caller) nextSeq() uint64 {
	c.seq++
	c.led.issued[c.class].Store(c.seq)
	return c.seq
}

// corruptEvery, when set, stamps every n-th written value with the wrong
// key. Only TestCorruptedStampFailsTheRun sets it, to show the output
// checks have teeth; no flag reaches it.
var corruptEvery uint64

// stampOut stamps buffer v for (key, seq) and returns the value to send.
func (c *caller) stampOut(v []byte, key, seq uint64) []byte {
	if corruptEvery > 0 && seq%corruptEvery == 0 {
		key ^= 0xdead0000
	}
	stamp(v, key, seq)
	if c.retains {
		return bytes.Clone(v)
	}
	return v
}

// checkValue verifies one value read for key: length, key stamp, and the
// sequence window [ackedBefore, issued now].
func (c *caller) checkValue(key uint64, v []byte, found bool, ackedBefore uint64) bool {
	if !found {
		return c.fail("key %d not found (every key is preloaded)", key)
	}
	if len(v) != c.wl.vsize {
		return c.fail("key %d: value of %d bytes, want %d", key, len(v), c.wl.vsize)
	}
	k, seq := readStamp(v)
	if k != key {
		return c.fail("key %d: value stamped for key %d", key, k)
	}
	if seq < ackedBefore {
		return c.fail("key %d: read sequence %d, older than acknowledged %d", key, seq, ackedBefore)
	}
	if issued := c.led.issued[key&1].Load(); seq > issued {
		return c.fail("key %d: read sequence %d, newer than any issued (%d)", key, seq, issued)
	}
	return true
}

// exec runs one operation against the target, times the call alone, and
// checks its output. ok is false for an error or a failed check.
func (c *caller) exec(o *op) (latNs int64, ok bool) {
	var t0 time.Time
	var err error
	switch o.kind {
	case opGet:
		before := c.led.acked[o.key].Load()
		t0 = time.Now()
		v, found, gerr := c.tgt.get(o.key)
		latNs = int64(time.Since(t0))
		if err = gerr; err == nil {
			ok = c.checkValue(o.key, v, found, before)
		}
	case opPut:
		seq := c.nextSeq()
		v := c.stampOut(c.vals[0], o.key, seq)
		t0 = time.Now()
		err = c.tgt.put(o.key, v)
		latNs = int64(time.Since(t0))
		if err == nil {
			c.led.acked[o.key].Store(seq)
			ok = true
		}
	case opMultiGet:
		for i, k := range o.keys {
			c.before[i] = c.led.acked[k].Load()
		}
		t0 = time.Now()
		vals, found, gerr := c.tgt.multiGet(o.keys)
		latNs = int64(time.Since(t0))
		if err = gerr; err == nil {
			if ok = len(vals) == len(o.keys) && len(found) == len(o.keys); !ok {
				c.fail("multiget of %d keys returned %d values", len(o.keys), len(vals))
			}
			for i := 0; ok && i < len(o.keys); i++ {
				ok = c.checkValue(o.keys[i], vals[i], found[i], c.before[i])
			}
		}
	case opMultiPut:
		kvs := c.pairs[:len(o.keys)]
		for i, k := range o.keys {
			c.before[i] = c.nextSeq()
			kvs[i] = shardedkv.Pair{Key: k, Value: c.stampOut(c.vals[i], k, c.before[i])}
		}
		t0 = time.Now()
		err = c.tgt.multiPut(kvs)
		latNs = int64(time.Since(t0))
		if err == nil {
			for i, k := range o.keys {
				c.led.acked[k].Store(c.before[i])
			}
			ok = true
		}
	case opRange:
		t0 = time.Now()
		kvs, more, serr := c.tgt.scan(o.key, o.hi)
		latNs = int64(time.Since(t0))
		if err = serr; err == nil {
			// Every key exists and none is ever deleted, so pair i must be
			// key lo+i: that is ascending order, the [lo,hi] bounds and the
			// count in one comparison.
			if ok = !more && uint64(len(kvs)) == o.hi-o.key+1; !ok {
				c.fail("range [%d,%d] returned %d pairs (more=%v), want %d", o.key, o.hi, len(kvs), more, o.hi-o.key+1)
			}
			for i := 0; ok && i < len(kvs); i++ {
				if ok = kvs[i].Key == o.key+uint64(i); !ok {
					c.fail("range [%d,%d]: pair %d has key %d", o.key, o.hi, i, kvs[i].Key)
					break
				}
				ok = c.checkValue(kvs[i].Key, kvs[i].Value, true, 0)
			}
		}
	}
	if err != nil {
		c.fail("%s: %v", opNames[o.kind], err)
	}
	return latNs, ok
}

// run is the closed loop. Requests issued while the pass is in its
// measure phase are recorded; with a tracer each call is also a root span.
func (c *caller) run() {
	var o op
	var id uint64
	slo := int64(classSLO[c.class])
	for {
		ph := c.phase.Load()
		if ph == phaseStop {
			return
		}
		c.gen.next(&o)
		id++
		root := int32(-1)
		var start int64
		if c.tr != nil {
			root = c.tr.begin(c.class, id)
			start = c.tr.now()
		}
		lat, ok := c.exec(&o)
		if c.tr != nil {
			c.tr.end(c.class)
			c.tr.fill(root, span{name: c.root, class: uint8(c.class), parent: -1, req: id, start: start, end: c.tr.now()})
		}
		if ph != phaseMeasure {
			continue
		}
		c.attempted++
		c.kinds[o.kind]++
		c.lat = append(c.lat, lat)
		if !ok {
			c.failed++
		}
		// A failed request counts as missing any latency limit.
		if !ok || lat > slo {
			c.overSLO++
		}
	}
}

// usage is the process's cumulative resource use at one instant.
type usage struct {
	cpu            time.Duration // user + system
	mallocs, bytes uint64        // heap objects and bytes allocated
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
}

// procStatusKB reads one "Vm*: N kB" field of /proc/self/status.
func procStatusKB(field string) (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte(field+":")) {
			continue
		}
		fs := bytes.Fields(line[len(field)+1:])
		if len(fs) == 0 {
			break
		}
		return strconv.ParseInt(string(fs[0]), 10, 64)
	}
	return 0, fmt.Errorf("/proc/self/status has no %s field", field)
}

// rssWatch reports a pass's peak resident set. VmHWM is exact but never
// falls, so it names this pass's peak only if it rose during the pass;
// otherwise (an earlier, larger pass in the same process) the peak is the
// largest VmRSS a 20 Hz sampler saw.
type rssWatch struct {
	hwmBefore int64
	sampled   atomic.Int64
	stop      chan struct{}
	done      sync.WaitGroup
}

func startRSSWatch() (*rssWatch, error) {
	// Hand freed memory back first, so an earlier pass's garbage is not
	// resident when this one starts.
	debug.FreeOSMemory()
	hwm, err := procStatusKB("VmHWM")
	if err != nil {
		return nil, err
	}
	w := &rssWatch{hwmBefore: hwm, stop: make(chan struct{})}
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			if rss, err := procStatusKB("VmRSS"); err == nil && rss > w.sampled.Load() {
				w.sampled.Store(rss)
			}
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w, nil
}

// peakMB stops the sampler and returns the pass's peak in MB.
func (w *rssWatch) peakMB() float64 {
	close(w.stop)
	w.done.Wait()
	peak := w.sampled.Load()
	if hwm, err := procStatusKB("VmHWM"); err == nil && hwm > w.hwmBefore {
		peak = hwm
	}
	return float64(peak) / 1024
}

// passConfig selects one pass: a workload and seed, how long to warm up
// and measure, where to keep WAL files, and how the system is driven.
type passConfig struct {
	wl      *workload
	seed    uint64
	warm    time.Duration
	dur     time.Duration
	scratch string
	stderr  io.Writer

	tr     *tracer // nil: untraced
	direct bool    // drive the KV value, no server (traced direct pass)
}

// classResult is one class's client-side outcome over the measured window.
type classResult struct {
	lat       []int64 // ns, ascending
	attempted uint64
	failed    uint64
	overSLO   uint64
	kinds     [numOpKinds]uint64
}

func (c *classResult) meanNs() float64 {
	var sum int64
	for _, l := range c.lat {
		sum += l
	}
	return float64(sum) / float64(max(len(c.lat), 1))
}

// progStats are the program's own cumulative counters at one instant,
// read through the Stats methods it already has.
type progStats struct {
	server  kvserver.ServerStats
	shards  shardedkv.ShardStats
	combine shardedkv.CombineStats
	wal     wal.Stats
}

func (s *system) progStats() progStats {
	ps := progStats{shards: s.store.AggregateStats(), wal: s.store.WalStats()}
	if s.srv != nil {
		ps.server = s.srv.Stats()
	}
	if s.async != nil {
		ps.combine = s.async.AggregateCombineStats()
	}
	return ps
}

// passResult is everything one pass measured.
type passResult struct {
	setup   setupInfo
	elapsed time.Duration
	class   [2]classResult
	use     usage // measured window only
	peakMB  float64

	// crashFailed counts keys the crash-reopen check found older than an
	// acknowledged interactive write (durable workloads, wire passes).
	crashFailed uint64

	// The program's counters at the window's edges (traced passes), and
	// what only the end state says.
	before, after      progStats
	degraded, mapEpoch uint64
}

func (r *passResult) attempted() uint64 { return r.class[0].attempted + r.class[1].attempted }
func (r *passResult) failed() uint64 {
	return r.class[0].failed + r.class[1].failed + r.crashFailed
}

// zipfCache keeps the zeta sums, one per keyspace size. Generators are
// only ever built on the goroutine that runs the passes.
var zipfCache = map[uint64]*zipfian{}

func zipfFor(wl *workload) *zipfian {
	if !wl.zipf {
		return nil
	}
	z := zipfCache[wl.keys]
	if z == nil {
		z = newZipfian(wl.keys, 0.99)
		zipfCache[wl.keys] = z
	}
	return z
}

// runPass sets the system up, warms it, measures for cfg.dur with two
// closed-loop callers (interactive and bulk, one request in flight each),
// checks every output, and tears the system down — through a crash and a
// recovery when the workload is durable.
func runPass(cfg passConfig) (*passResult, error) {
	wl := cfg.wl
	res := &passResult{}
	rss, err := startRSSWatch()
	if err != nil {
		return nil, err
	}
	defer func() {
		if rss != nil {
			rss.peakMB()
		}
	}()
	if wl.durable {
		if err = os.RemoveAll(cfg.scratch); err != nil {
			return nil, err
		}
		if err = os.MkdirAll(cfg.scratch, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(cfg.scratch)
	}

	var sys *system
	var targets [2]target
	var clients [2]*kvclient.Client
	rootName := spClientCall
	if cfg.direct {
		rootName = spKVCall
		if sys, res.setup, err = setupDirect(wl, cfg.scratch, cfg.tr); err != nil {
			return nil, err
		}
		for class := range targets {
			targets[class] = newDirectTarget(sys.kv(), class)
		}
	} else {
		if sys, clients, res.setup, err = setupServed(wl, cfg.scratch, cfg.tr); err != nil {
			return nil, err
		}
		for class := range targets {
			targets[class] = wireTarget{c: clients[class], class: uint8(class)}
		}
	}

	led := &ledger{acked: make([]atomic.Uint64, wl.keys)}
	var phase atomic.Int32
	var callers [2]*caller
	// Room for every latency a wire pass can produce (under 100k requests
	// a second per caller), so the measured loop itself allocates nothing.
	room := int(cfg.dur.Seconds()+1) * 100_000
	for class := range callers {
		c := &caller{
			wl: wl, class: class, tgt: targets[class], led: led, tr: cfg.tr, root: rootName, retains: cfg.direct,
			gen:   newOpGen(wl, class, cfg.seed, zipfFor(wl)),
			phase: &phase, stderr: cfg.stderr,
			lat: make([]int64, 0, room),
		}
		for i := range c.vals {
			c.vals[i] = newValue(wl.vsize)
		}
		callers[class] = c
	}

	var wg sync.WaitGroup
	for _, c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run()
		}()
	}
	time.Sleep(cfg.warm)
	if cfg.tr != nil {
		res.before = sys.progStats()
	}
	before := readUsage()
	if cfg.tr != nil {
		cfg.tr.recording.Store(true)
	}
	started := time.Now()
	phase.Store(phaseMeasure)
	time.Sleep(cfg.dur)
	phase.Store(phaseStop)
	res.elapsed = time.Since(started)
	if cfg.tr != nil {
		cfg.tr.recording.Store(false)
	}
	after := readUsage()
	wg.Wait()
	res.use = usage{cpu: after.cpu - before.cpu, mallocs: after.mallocs - before.mallocs, bytes: after.bytes - before.bytes}
	res.peakMB = rss.peakMB()
	rss = nil

	for class, c := range callers {
		slices.Sort(c.lat)
		res.class[class] = classResult{lat: c.lat, attempted: c.attempted, failed: c.failed, overSLO: c.overSLO, kinds: c.kinds}
	}

	for _, cl := range clients {
		if cl != nil {
			cl.Close()
		}
	}
	if cfg.tr != nil {
		res.after = sys.progStats()
	}
	if sys.srv != nil {
		sys.srv.Close()
	}
	res.degraded, res.mapEpoch = sys.store.DegradedShards(), sys.store.MapEpoch()
	if wl.durable && !cfg.direct {
		if res.crashFailed, err = crashCheck(sys, led, cfg.stderr); err != nil {
			return nil, err
		}
	} else {
		sys.closeStore()
	}
	return res, nil
}

// setupDirect opens the store alone and preloads it through the KV value.
func setupDirect(wl *workload, scratch string, tr *tracer) (*system, setupInfo, error) {
	start := time.Now()
	s := newSystem(wl, scratch, tr)
	if err := s.openStore(); err != nil {
		return nil, setupInfo{}, fmt.Errorf("open store: %w", err)
	}
	loader := newDirectTarget(s.kv(), bulk)
	err := preload(wl, func(kvs []shardedkv.Pair) error {
		own := make([]shardedkv.Pair, len(kvs))
		for i, kv := range kvs {
			own[i] = shardedkv.Pair{Key: kv.Key, Value: bytes.Clone(kv.Value)}
		}
		return loader.multiPut(own)
	})
	if err != nil {
		s.closeStore()
		return nil, setupInfo{}, err
	}
	if err := s.kv().Flush(loader.w); err != nil {
		s.closeStore()
		return nil, setupInfo{}, err
	}
	return s, setupInfo{setupS: time.Since(start).Seconds()}, nil
}

// crashCheck is durable-write's last output check. The server is already
// closed; the store drops its user-space buffers without a final sync
// (CrashDrop), the modelled device drops every byte no fsync covered, and
// the store is opened again on what is left. Every interactive-acked
// (key, sequence) must read back at least that new; a bulk key may have
// lost its async-acked tail but never reads back corrupt or from the
// future. Returns the number of keys that failed.
func crashCheck(sys *system, led *ledger, stderr io.Writer) (failed uint64, err error) {
	sys.store.CrashDrop()
	if err := sys.dev.crash(); err != nil {
		return 0, fmt.Errorf("crash check: %w", err)
	}
	sys.tr = nil
	if err := sys.openStore(); err != nil {
		return 0, fmt.Errorf("crash check: reopen: %w", err)
	}
	defer sys.closeStore()
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	complaints := 0
	for k := uint64(0); k < sys.wl.keys; k++ {
		v, ok := sys.store.Get(w, k)
		problem := ""
		switch {
		case !ok:
			problem = "missing after recovery"
		case len(v) != sys.wl.vsize:
			problem = fmt.Sprintf("recovered with %d bytes", len(v))
		default:
			key, seq := readStamp(v)
			acked, issued := led.acked[k].Load(), led.issued[k&1].Load()
			switch {
			case key != k:
				problem = fmt.Sprintf("recovered a value stamped for key %d", key)
			case seq > issued:
				problem = fmt.Sprintf("recovered sequence %d, newer than any issued (%d)", seq, issued)
			case k&1 == interactive && seq < acked:
				problem = fmt.Sprintf("recovered sequence %d, older than the sync-acknowledged %d", seq, acked)
			}
		}
		if problem != "" {
			failed++
			if complaints++; complaints <= 5 {
				fmt.Fprintf(stderr, "crash check failed (%s): key %d %s\n", sys.wl.name, k, problem)
			}
		}
	}
	return failed, nil
}
