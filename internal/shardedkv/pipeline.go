package shardedkv

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/wal"
)

// This file implements the asynchronous combining front end over
// Store: a flat-combining request pipeline in the spirit of Hendler,
// Incze, Shavit and Tzafrir (the paper's reference [47]), specialised
// for the asymmetric-core setting of the source paper.
//
// Every shard gets a lock-free MPSC request ring. Callers build a
// request (Get/Put/Delete/Range plus a future), enqueue it, and wait
// for completion — spinning or parking according to their core class.
// A batch (MultiGet/MultiPut) delegates per shard, not per key: one
// request carries a shard's whole share of the batch (see batch).
// Whoever wins the shard lock's TryAcquire becomes the combiner and
// drains the ring: up to the drain bound, queued operations execute
// against the engine under ONE Acquire/Release, completing futures as
// they go. Once a weak core has paid for the lock it amortises the
// cost over the whole queue instead of forcing a handoff per op — the
// combining extension of the paper's handoff-policy argument, and a
// direct application of Dice & Kogan's concurrency-restriction point:
// the hot shard's lock admits one thread, everyone else delegates.
//
// The asymmetry-aware twist is combiner election bias: big-class
// workers attempt election on every waiting pass while little-class
// workers hold back (and eventually park), so under mixed traffic the
// strong cores do the combining and the weak cores merely enqueue.
// Since the critical-section cost is paid by the EXECUTING worker, an
// op a little core enqueued runs at big-core speed when a big core
// combines it — on real AMP hardware that is the whole win; under the
// CSPad emulation the pad is keyed to the combiner's class for the
// same reason. Election bias is a preference, not a dependency:
// little workers still elect (and always serve themselves eventually),
// so the pipeline is live with no big cores at all.
//
// The drain bound adapts per shard: it starts at 32 and doubles while
// drains saturate it and the observed queue depth keeps up, decaying
// back when the ring runs dry — so a zipf-hot shard's combiner drains
// deeper per lock take while cold shards stay latency-lean. Big-class
// combiners use the full bound; little-class combiners cap at 32, the
// drain-side mirror of the election bias (big cores do the deep
// batches). A combiner on a hot shard also lingers a bounded few
// microseconds when its ring runs momentarily dry, picking up in-flight
// producers instead of paying them a fresh lock take each.
//
// The bound and the linger are coupled, which is why the bound adapts
// instead of being a constant. The linger is gated on hwRecent, the
// decaying depth estimate, and a drain that runs the ring dry short of
// its bound ages that estimate. So the gate stays open only while
// lingering drains fill the bound. A constant the lingering drains
// cannot fill (16 on a zipf-hot shard) ages hwRecent below
// lingerMinDepth and shuts the linger, and the little class's p99
// leaves its SLO; a constant low enough to be filled (8) keeps the
// linger but caps the drains of batched traffic, whose little-class
// p99 then loses. The adaptive bound decays to what drains do fill and
// grows with the queue.

// opKind is a pipeline request type.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDelete
	opRange
	opMultiGet // one shard's share of a MultiGet: bat.keys at idx
	opMultiPut // one shard's share of a MultiPut: bat.kvs at idx
)

// Future states. A request starts pending, is flipped to done by
// exactly one completer, and passes through parked only while its
// owner blocks on the wake channel.
const (
	futPending uint32 = iota
	futDone
	futParked
)

// request is one queued operation plus its future. Requests are
// pooled: the completer's complete() call is its last touch, after
// which the owner is free to read the results and recycle it.
type request struct {
	kind opKind
	key  uint64     // Get/Put/Delete key
	val  []byte     // Put value (retained by reference, as in Store.Put)
	rng  []RangeReq // opRange: spans to collect on one shard

	// A batch request (opMultiGet/opMultiPut) carries positions, not
	// payload: idx lists the positions of bat's keys that routed to this
	// ring, in batch order. idx keeps its capacity across recycling, so
	// grouping a batch allocates nothing in steady state. q is the ring
	// the request is submitted to.
	bat *batch
	idx []int
	q   *pipeShard

	// syncWait marks a waited write whose class demands group commit:
	// the executor appends to the shard's log as usual but the drain
	// holds the future back (in its pend list) and completes it only
	// after releasing the shard lock and committing the record — the
	// combiner's whole batch rides ONE fsync, and the fsync never runs
	// under a shard lock.
	syncWait bool

	// Results, written by the executor before complete().
	rval  []byte   // Get: stored value
	rok   bool     // Get: found / Put: inserted / Delete: was present
	parts [][]Pair // opRange: parts[i] is rng[i]'s slice of this shard
	ins   int      // opMultiPut: keys newly inserted
	err   error    // write failure (degraded shard / log error)
	// mark is the group commit a logged write is owed: the executing
	// shard's log up to the request's last record. lsn 0 (no record)
	// without durability and for reads.
	mark walMark

	state atomic.Uint32
	wake  chan struct{} // buffered(1); one token per park/wake pair
	timer *time.Timer   // lazily built; parks are timed for liveness
}

// isDone reports completion.
func (r *request) isDone() bool { return r.state.Load() == futDone }

// weight is the number of operations r stands for: a batch request's
// positions, 1 otherwise. Drains charge it against their bound.
func (r *request) weight() int {
	if r.bat != nil {
		return len(r.idx)
	}
	return 1
}

// complete publishes the result and wakes a parked owner. This is the
// completer's LAST touch of r: the owner may recycle it immediately
// after observing done.
func (r *request) complete() {
	if r.state.Swap(futDone) == futParked {
		r.wake <- struct{}{}
	}
}

// parkWait blocks the owner for at most d or until completion;
// reports whether the request completed. The CAS pair with complete()
// guarantees the wake channel is drained on every path, so pooled
// requests never carry a stale token.
func (r *request) parkWait(d time.Duration) bool {
	if !r.state.CompareAndSwap(futPending, futParked) {
		return true // completed before we could park
	}
	if r.timer == nil {
		r.timer = time.NewTimer(d)
	} else {
		r.timer.Reset(d)
	}
	select {
	case <-r.wake:
		r.timer.Stop()
		return true
	case <-r.timer.C:
		if !r.state.CompareAndSwap(futParked, futPending) {
			// complete() won the race and has sent (or is about to
			// send) the wake token; consume it before recycling.
			<-r.wake
			return true
		}
		return false
	}
}

// Combiner election cadence. Big-class waiters try on every bigElect'th
// pass starting immediately; little-class waiters only every
// littleElect'th pass, so a present big core wins the election race.
// Littles park after a short spin (they are the latency-tolerant
// class); bigs spin much longer before giving up the CPU.
const (
	bigElect        = 4
	littleElect     = 128
	littleParkAfter = 1 << 9
	bigParkAfter    = 1 << 14
	minParkSlice    = 50 * time.Microsecond
	maxParkSlice    = time.Millisecond
)

// Adaptive drain-bound tuning. The bound starts at adaptiveInitBatch,
// doubles while drains saturate it (and the recent queue depth
// justifies it), and halves when the ring runs dry. Little-class
// combiners cap their drains at adaptiveLittleCap; deep batches belong
// to big cores.
const (
	adaptiveInitBatch = 32
	adaptiveMinBatch  = 8
	adaptiveMaxBatch  = 1024
	adaptiveLittleCap = 32
	// lingerSpins bounds the combiner's dry-ring linger on a hot shard
	// (hwRecent >= lingerMinDepth): a few hundred spin units trade a
	// hair of hold time for whole lock takes saved by the producers
	// arriving meanwhile.
	lingerSpins    = 384
	lingerMinDepth = 4
	// batchKeyCap bounds the keys one batch request carries. A shard's
	// larger share of a batch becomes consecutive requests on its ring
	// (FIFO keeps batch order), so however large the batch, a drain
	// overshoots its bound by less than one request and no shard lock is
	// held longer than a drain of point requests would hold it.
	batchKeyCap = adaptiveInitBatch
)

// AsyncConfig configures an AsyncStore.
type AsyncConfig struct {
	// RingSize is the per-shard queue capacity, rounded up to a power
	// of two; 0 means 256. A full ring falls back to direct execution
	// under the shard lock, so enqueue never blocks on space.
	RingSize int
}

// pipeShard is one shard's pipeline state: the request ring plus
// combining counters and the adaptive drain bound. NewAsync builds one
// per shard.
type pipeShard struct {
	sh   *shard
	ring *reqRing
	// bound is the adaptive drain bound in keys. Reaching it releases
	// the lock (so big-core FIFO entrants and sync-path users get their
	// turn) and re-elects if the ring is still non-empty.
	bound atomic.Int64
	// hwRecent is a decaying queue-depth estimate (ring slots): raised
	// like depthHW at enqueue, decayed by idle drains. The adaptive
	// bound grows toward it, never past it.
	hwRecent atomic.Uint64
	// executed counts ring requests applied to the engine (and logged,
	// under durability), i.e. the ring position up to which effects are
	// real — per ring slot whatever a request weighs, because execDirect
	// compares it with ring positions. It trails the ring's head cursor,
	// which advances at dequeue time, so execDirect waits on executed,
	// not head: a request a concurrent combiner has dequeued but not yet
	// run has no effect yet. Every caller waits for its own requests, so
	// once all callers have returned executed equals the ring's tail —
	// what lets Flush and Close skip the rings. A sync-wait request's
	// FUTURE may complete after the cursor covers it (the combiner
	// commits post-release); only its owner waits on that.
	executed  atomic.Uint64
	lockTakes atomic.Uint64
	combined  atomic.Uint64
	direct    atomic.Uint64
	handoffs  atomic.Uint64
	depthHW   atomic.Uint64
	// takesBy counts lock takes per electing class, indexed by
	// core.Class (Big = 0, Little = 1).
	takesBy [2]atomic.Uint64
	last    atomic.Pointer[core.Worker]
	_       [64]byte
}

// noteTake records one async-path lock take by worker w.
func (q *pipeShard) noteTake(w *core.Worker) {
	q.lockTakes.Add(1)
	q.takesBy[w.Class()].Add(1)
	if prev := q.last.Swap(w); prev != nil && prev != w {
		q.handoffs.Add(1)
	}
}

// noteDepth folds the current queue depth into the high-water mark and
// the decaying recent-depth estimate.
func (q *pipeShard) noteDepth() {
	d := q.ring.Len()
	for {
		hw := q.depthHW.Load()
		if d <= hw || q.depthHW.CompareAndSwap(hw, d) {
			break
		}
	}
	for {
		hw := q.hwRecent.Load()
		if d <= hw || q.hwRecent.CompareAndSwap(hw, d) {
			return
		}
	}
}

// drainBound returns the bound this combiner's drain should use.
func (q *pipeShard) drainBound(w *core.Worker) int {
	b := int(q.bound.Load())
	if w.Class() == core.Little && b > adaptiveLittleCap {
		b = adaptiveLittleCap
	}
	return b
}

// adapt updates the adaptive bound after a drain of n ops ran with the
// given bound. A drain that ran the ring dry ages the recent-depth
// estimate (integer decay that reaches 0, so one burst does not read as
// lasting depth); only full-bound (big-class) drains grow the shared
// bound, and any dry drain decays it. Runs under the shard lock, so
// updates are serialised; the plain stores racing a concurrent
// noteDepth CAS are advisory-only.
func (q *pipeShard) adapt(n, used int) {
	if q.ring.Empty() && n < used {
		q.hwRecent.Store(q.hwRecent.Load() * 3 / 4)
	}
	b := int(q.bound.Load())
	if used != b {
		return
	}
	switch {
	case n >= used && !q.ring.Empty():
		hw := q.hwRecent.Load()
		nb := min(b*2, adaptiveMaxBatch, q.ring.Cap())
		if nb > b && uint64(b) <= hw {
			q.bound.Store(int64(nb))
		}
	case n*4 < b && q.ring.Empty():
		if b > adaptiveMinBatch {
			q.bound.Store(int64(max(b/2, adaptiveMinBatch)))
		}
	}
}

// CombineStats is a snapshot of one shard's combining counters.
type CombineStats struct {
	// LockTakes counts shard-lock acquisitions made on the async path
	// (combiner elections won plus ring-full direct takes).
	LockTakes uint64
	// Combined counts operations executed on the async path, in keys: a
	// batch request adds the keys it carries, not 1. Combined /
	// LockTakes is the ops-per-lock-take the pipeline exists to raise
	// above 1.
	Combined uint64
	// Direct counts ring-full fallbacks (executed solo under a
	// blocking acquire; their ops and takes are included above).
	Direct uint64
	// Handoffs counts lock takes won by a different worker than the
	// previous combiner — combiner identity churn.
	Handoffs uint64
	// DepthHW is the queue-depth high-water mark observed at enqueue,
	// in ring slots: a batch's whole share of the shard is one request.
	DepthHW uint64
	// MaxBatchEff is the drain bound currently in effect, in keys: the
	// adaptive bound the shard has grown/decayed to. A drain stops at
	// the first request that reaches it, so it overshoots by less than
	// batchKeyCap.
	MaxBatchEff uint64
	// BigTakes and LittleTakes split LockTakes by the elector's class;
	// under mixed traffic the election bias should keep BigTakes well
	// ahead.
	BigTakes, LittleTakes uint64
}

// OpsPerLockTake returns Combined/LockTakes (0 when idle).
func (c CombineStats) OpsPerLockTake() float64 {
	if c.LockTakes == 0 {
		return 0
	}
	return float64(c.Combined) / float64(c.LockTakes)
}

// stats snapshots this pipeShard's counters.
func (q *pipeShard) stats() CombineStats {
	return CombineStats{
		LockTakes:   q.lockTakes.Load(),
		Combined:    q.combined.Load(),
		Direct:      q.direct.Load(),
		Handoffs:    q.handoffs.Load(),
		DepthHW:     q.depthHW.Load(),
		MaxBatchEff: uint64(q.bound.Load()),
		BigTakes:    q.takesBy[core.Big].Load(),
		LittleTakes: q.takesBy[core.Little].Load(),
	}
}

// AsyncStore is the combining front end. It wraps a Store and shares
// its shard locks, so async and plain synchronous calls on the same
// Store interleave safely (sync holders simply delay the combiner).
// All methods are safe for concurrent use; as everywhere in this
// repository, each goroutine must own its *core.Worker.
type AsyncStore struct {
	st       *Store
	ringSize int
	// rings[i] is shard i's pipeline state, fixed at NewAsync.
	rings   []*pipeShard
	pool    sync.Pool // *request
	batches sync.Pool // *batch
	closed  atomic.Bool
}

// NewAsync builds a combining front end over st: one request ring per
// shard.
func NewAsync(st *Store, cfg AsyncConfig) *AsyncStore {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 256
	}
	a := &AsyncStore{st: st, ringSize: cfg.RingSize}
	a.pool.New = func() any { return &request{wake: make(chan struct{}, 1)} }
	a.batches.New = func() any { return new(batch) }
	a.rings = make([]*pipeShard, len(st.shards))
	for i, sh := range st.shards {
		q := &pipeShard{sh: sh, ring: newReqRing(cfg.RingSize)}
		q.bound.Store(adaptiveInitBatch)
		a.rings[i] = q
	}
	return a
}

// Store returns the wrapped synchronous store (for Stats, Len, or
// direct calls).
func (a *AsyncStore) Store() *Store { return a.st }

// Stats snapshots the wrapped store's per-shard counters (KV surface;
// combining-specific numbers live in CombineStats).
func (a *AsyncStore) Stats() []ShardStats { return a.st.Stats() }

func (a *AsyncStore) newReq(kind opKind) *request {
	r := a.pool.Get().(*request)
	r.kind = kind
	r.state.Store(futPending)
	return r
}

// putReq recycles r. Result slices escape to callers, so every
// reference is dropped here.
func (a *AsyncStore) putReq(r *request) {
	r.val, r.rval, r.rng, r.parts = nil, nil, nil, nil
	r.rok, r.syncWait = false, false
	r.bat, r.idx, r.q = nil, r.idx[:0], nil
	r.ins, r.err, r.mark = 0, nil, walMark{}
	a.pool.Put(r)
}

// finishOrDefer completes r, or parks it on pend when its future must
// wait for group commit. Called with the executing shard's lock held;
// the deferral is what keeps wal.Commit off the locked path.
func (a *AsyncStore) finishOrDefer(r *request, pend *[]*request) {
	if r.syncWait && r.mark.lsn != 0 {
		*pend = append(*pend, r)
		return
	}
	r.complete()
}

// completePending commits and completes the sync-wait requests a drain
// held back. Every shard lock must be released first: Commit fsyncs
// (or piggybacks on the leader already doing so), and commits in pend
// order make one call per log do the real work — later entries find
// their LSN already durable. A failed commit degrades the executing
// shard and publishes the typed error on every covered future — the
// whole held-back batch was promised the same fsync, so none of it
// may falsely ack.
func (s *Store) completePending(pend []*request) {
	for _, r := range pend {
		if r.err == nil {
			r.err = s.commit(r.mark)
		}
		r.complete()
	}
}

func (a *AsyncStore) checkOpen() {
	if a.closed.Load() {
		panic("shardedkv: AsyncStore used after Close")
	}
}

// pipeOf returns the pipeShard owning key k.
func (a *AsyncStore) pipeOf(k uint64) *pipeShard {
	return a.rings[a.st.ShardOf(k)]
}

// exec runs one request against the shard's engine; the caller holds
// the shard lock. The CSPad and the store's per-shard counters apply
// exactly as on the synchronous path, with the pad keyed to the
// EXECUTING worker's class: combining by a big core makes a little
// core's op cheap, which is the point.
func (a *AsyncStore) exec(w *core.Worker, sh *shard, r *request) {
	switch r.kind {
	case opGet:
		r.rval, r.rok = sh.eng.Get(r.key)
		a.st.pad(w)
		sh.gets.Add(1)
	case opPut:
		if !a.logPoint(sh, r, wal.KindPut) {
			return
		}
		r.rok = sh.eng.Put(r.key, r.val)
		a.st.pad(w)
		sh.puts.Add(1)
	case opDelete:
		if !a.logPoint(sh, r, wal.KindDelete) {
			return
		}
		r.rok = sh.eng.Delete(r.key)
		a.st.pad(w)
		sh.deletes.Add(1)
	case opRange:
		// Collect under the lock, complete the future, and let the
		// OWNER run its callback after release — a combiner must never
		// execute user code while it holds the shard lock (the same
		// collect-then-emit contract as Store.Range).
		a.st.collectShardRanges(w, sh, r.rng, r.parts)
	case opMultiGet, opMultiPut:
		a.execMany(w, sh, r)
	}
}

// logPoint runs the store's log step for point write r (r.val is nil
// on a delete) and records the commit it is owed; false means the shard
// refused, r.err says why, and r must not be applied.
func (a *AsyncStore) logPoint(sh *shard, r *request, kind wal.Kind) bool {
	lsn, err := a.st.logWrite(sh, kind, r.key, r.val)
	if err != nil {
		r.err = err
		return false
	}
	if lsn != 0 {
		r.mark = walMark{sh: sh, lsn: lsn}
	}
	return true
}

// execMany runs batch request r's positions against sh through the
// store's per-shard sub-batch helpers, the whole of r.idx under the
// combiner's one lock take. The caller holds sh's lock.
func (a *AsyncStore) execMany(w *core.Worker, sh *shard, r *request) {
	b := r.bat
	if r.kind == opMultiGet {
		a.st.getMany(w, sh, b.keys, r.idx, b.vals, b.oks)
		return
	}
	ins, lsn, err := a.st.putMany(w, sh, b.kvs, r.idx)
	r.ins, r.err = ins, err
	if lsn != 0 {
		r.mark = walMark{sh: sh, lsn: lsn}
	}
}

// execDrained runs r, just dequeued from q's ring by the holder of q's
// shard lock, hands it back and advances the executed cursor by its one
// ring slot. Returns r's weight, read before the hand back: a completed
// request belongs to its owner again.
func (a *AsyncStore) execDrained(w *core.Worker, q *pipeShard, r *request, pend *[]*request) int {
	n := r.weight()
	a.exec(w, q.sh, r)
	a.finishOrDefer(r, pend)
	q.executed.Add(1)
	return n
}

// drain executes queued requests until the operations they stand for
// reach the drain bound (a batch request counts its keys, so the last
// one may overshoot by less than batchKeyCap); the caller holds q's
// shard lock. A combiner whose ring runs momentarily dry on a hot shard
// lingers briefly for in-flight producers before giving the lock up.
// Returns the number of operations executed. Sync-wait writes are
// applied and logged here but their futures land on pend; the caller
// completes them after release (see completePending).
func (a *AsyncStore) drain(w *core.Worker, q *pipeShard, pend *[]*request) int {
	bound := q.drainBound(w)
	n, linger := 0, 0
	var s locks.Spinner
	for n < bound {
		r := q.ring.dequeue()
		if r == nil {
			if n > 0 && linger < lingerSpins && q.hwRecent.Load() >= lingerMinDepth {
				linger++
				s.Spin()
				continue
			}
			break
		}
		n += a.execDrained(w, q, r, pend)
	}
	if n > 0 {
		q.combined.Add(uint64(n))
	}
	q.adapt(n, bound)
	return n
}

// tryCombine runs ONE combiner election on q's shard; a win drains at
// most the bound's worth of queued ops under a single lock take.
// Reports whether it actually drained work — callers spin-wait on
// false, which also covers the won-but-empty case (a producer stalled
// between its ring claim and its publish). A failed TryAcquire means
// whoever holds the lock is either a combiner (and is draining) or a
// sync-path user of the shared lock (and will release soon) — the
// caller keeps waiting on its own future either way. Bounding each
// call to one take keeps a busy shard from turning its current
// combiner into a permanent server: between batches the lock is
// released, FIFO entrants and sync-path users get their turn, and the
// ex-combiner re-checks its own future before volunteering again.
func (a *AsyncStore) tryCombine(w *core.Worker, q *pipeShard) bool {
	if q.ring.Empty() {
		return false
	}
	if !q.sh.lock.TryAcquire(w) {
		return false
	}
	// Count the take only when it drains something: empty takes must
	// not dilute the ops-per-lock-take metric.
	var pend []*request
	n := a.drain(w, q, &pend)
	if n > 0 {
		q.noteTake(w)
	}
	q.sh.lock.Release(w)
	a.st.completePending(pend)
	return n > 0
}

// execDirect is the ring-full fallback: execute r solo under a
// blocking acquire of its shard, then drain whatever is queued there —
// the ring was full a moment ago, so there is combining work to
// amortise the take over.
//
// Before executing r, everything enqueued on q before the failed ring
// claim is driven to execution. Without this, the direct path could
// overtake an earlier request of the SAME batch still queued on this
// ring — a shard's share larger than batchKeyCap is several
// consecutive requests — and break batch order, so a duplicate key
// would not apply last-wins (same-key ops always resolve to the same
// ring, so this local guard is the whole FIFO story).
func (a *AsyncStore) execDirect(w *core.Worker, q *pipeShard, r *request) {
	target := q.ring.tailPos()
	var sp locks.Spinner
	for q.executed.Load() < target {
		if !a.tryCombine(w, q) {
			sp.Spin()
		}
	}
	var pend []*request
	sh := q.sh
	sh.lock.Acquire(w)
	q.noteTake(w)
	q.direct.Add(1)
	q.combined.Add(uint64(r.weight()))
	a.exec(w, sh, r)
	a.drain(w, q, &pend)
	sh.lock.Release(w)
	a.finishOrDefer(r, &pend)
	a.st.completePending(pend)
}

// awaitAll drives the waiting side of every request in reqs (each
// enqueued on its r.q) with ONE election cadence, however many there
// are: every pass re-checks the oldest outstanding future, an election
// pass tries every ring that still holds an outstanding request, when
// patience runs out the owner parks on the oldest, and once the oldest
// completes every completed request is handed to reap.
// Parks are timed, so even a worst-case interleaving (combiner released
// just before we parked, nobody else awake) only costs one park slice,
// not liveness. reqs is compacted in place as futures complete.
func (a *AsyncStore) awaitAll(w *core.Worker, reqs []*request, reap func(*request)) {
	elect, parkAfter := littleElect, littleParkAfter
	if w.Class() == core.Big {
		elect, parkAfter = bigElect, bigParkAfter
	}
	slice := minParkSlice
	var s locks.Spinner
	pass := 0
	for len(reqs) > 0 {
		// The wait cannot end before the oldest request completes, so a
		// pass looks at that one future only — the stand-back is counted
		// in passes, and a pass costs what it did when every wait was for
		// one request.
		head := reqs[0]
		for ; !head.isDone(); pass++ {
			// Both classes sit out one cadence before their first try —
			// a request enqueued while a combiner is active is usually
			// drained within a few passes, and electing before that just
			// buys a singleton batch. Bigs re-try every few passes
			// (strong cores combine); littles wait out a much longer
			// cadence, giving any big-core waiter the win before serving
			// themselves.
			if pass%elect == elect-1 {
				drained := false
				for _, r := range reqs {
					if !r.isDone() && a.tryCombine(w, r.q) {
						drained = true
					}
				}
				if drained {
					continue
				}
			}
			if pass >= parkAfter {
				if !head.parkWait(slice) && slice < maxParkSlice {
					slice *= 2
				}
				continue
			}
			s.Spin()
		}
		out := reqs[:0]
		for _, r := range reqs {
			if r.isDone() {
				reap(r)
			} else {
				out = append(out, r)
			}
		}
		reqs = out
	}
}

// submit enqueues r on q, or executes it directly when the ring is
// full, without waiting for completion. Once published, r belongs to
// whichever combiner executes it until it completes, so submit does
// not touch it again.
func (a *AsyncStore) submit(w *core.Worker, q *pipeShard, r *request) {
	if !q.ring.enqueue(r) {
		a.execDirect(w, q, r)
		return
	}
	q.noteDepth()
}

// run submits r on q and waits for it.
func (a *AsyncStore) run(w *core.Worker, q *pipeShard, r *request) {
	r.q = q
	a.submit(w, q, r)
	if !r.isDone() {
		one := [1]*request{r}
		a.awaitAll(w, one[:], func(*request) {})
	}
}

// Get reads k through the pipeline on behalf of worker w.
func (a *AsyncStore) Get(w *core.Worker, k uint64) ([]byte, bool) {
	a.checkOpen()
	r := a.newReq(opGet)
	r.key = k
	a.run(w, a.pipeOf(k), r)
	v, ok := r.rval, r.rok
	a.putReq(r)
	return v, ok
}

// Put stores k=v through the pipeline; reports insert-vs-replace. As
// with Store.Put, v is retained by reference until the op executes.
// With durability on and a sync-wait class, the call returns only
// after the record is fsynced — riding whichever group commit the
// executing combiner's batch leads or joins. A log failure surfaces
// here as Store.Put's typed error: the executing combiner records it
// on the future (degrading the shard) and the owner reads it back.
func (a *AsyncStore) Put(w *core.Worker, k uint64, v []byte) (bool, error) {
	a.checkOpen()
	r := a.newReq(opPut)
	r.key, r.val = k, v
	r.syncWait = a.st.syncWaitFor(w)
	a.run(w, a.pipeOf(k), r)
	ok, err := r.rok, r.err
	a.putReq(r)
	return ok, err
}

// Delete removes k through the pipeline; reports presence. Sync
// policy and degraded-mode behaviour as in Put.
func (a *AsyncStore) Delete(w *core.Worker, k uint64) (bool, error) {
	a.checkOpen()
	r := a.newReq(opDelete)
	r.key = k
	r.syncWait = a.st.syncWaitFor(w)
	a.run(w, a.pipeOf(k), r)
	ok, err := r.rok, r.err
	a.putReq(r)
	return ok, err
}

// batch is one MultiGet or MultiPut in flight: the caller's payload,
// which the batch's requests address by position, plus the grouping
// scratch. Pooled; the owner frees it after reaping its last request,
// so an executor may read the payload through request.bat for as long
// as it holds an uncompleted request.
type batch struct {
	kind     opKind
	syncWait bool
	keys     []uint64 // opMultiGet: the caller's keys
	vals     [][]byte // opMultiGet: results, written by position
	oks      []bool
	kvs      []Pair // opMultiPut: the caller's pairs

	// open[i] is the request ring i is being grouped into: its newest,
	// the only one not yet full. reqs lists every request in creation
	// order, which for the requests of one ring is batch order.
	open []*request
	reqs []*request

	inserted int
	err      error
}

// newBatch checks a batch out of the pool, its grouping table sized
// for one entry per ring.
func (a *AsyncStore) newBatch(kind opKind) *batch {
	b := a.batches.Get().(*batch)
	b.kind = kind
	if n := len(a.rings); cap(b.open) < n {
		b.open = make([]*request, n)
	} else {
		b.open = b.open[:n]
	}
	return b
}

// route adds position i, whose key is k, to the batch's open request
// for the ring owning k, opening a new one when the ring has none yet
// or its open one is full.
func (a *AsyncStore) route(b *batch, k uint64, i int) {
	si := a.st.ShardOf(k)
	r := b.open[si]
	if r == nil || len(r.idx) == batchKeyCap {
		r = a.newReq(b.kind)
		r.bat, r.q, r.syncWait = b, a.rings[si], b.syncWait
		b.open[si] = r
		b.reqs = append(b.reqs, r)
	}
	r.idx = append(r.idx, i)
}

// runBatch submits the grouped requests in creation order, waits for
// them under one election cadence, folds their results into b, and
// recycles them.
func (a *AsyncStore) runBatch(w *core.Worker, b *batch) {
	for _, r := range b.reqs {
		a.submit(w, r.q, r)
	}
	a.awaitAll(w, b.reqs, func(r *request) {
		b.inserted += r.ins
		if r.err != nil && b.err == nil {
			b.err = r.err
		}
		a.putReq(r)
	})
}

// freeBatch returns b to the pool holding no caller memory.
func (a *AsyncStore) freeBatch(b *batch) {
	clear(b.open)
	clear(b.reqs)
	*b = batch{open: b.open[:0], reqs: b.reqs[:0]}
	a.batches.Put(b)
}

// MultiGet reads all keys through the pipeline, one request per
// touched shard: the batch positions are grouped by ring, each ring
// gets its share as ONE request (consecutive requests of at most
// batchKeyCap keys when the share is larger), and a combiner reads a
// request's keys under a single lock take — combiners on different
// shards working in parallel — while the caller waits for all of them
// under one election cadence. vals[i] and ok[i] correspond to keys[i].
func (a *AsyncStore) MultiGet(w *core.Worker, keys []uint64) (vals [][]byte, ok []bool) {
	a.checkOpen()
	vals = make([][]byte, len(keys))
	ok = make([]bool, len(keys))
	b := a.newBatch(opMultiGet)
	b.keys, b.vals, b.oks = keys, vals, ok
	for i, k := range keys {
		a.route(b, k, i)
	}
	a.runBatch(w, b)
	a.freeBatch(b)
	return vals, ok
}

// MultiPut writes all pairs through the pipeline, grouped by shard
// like MultiGet; returns the number of newly inserted keys. Duplicate
// keys within the batch apply in batch order (last wins, as in
// Store.MultiPut): they share a ring, a ring's requests are enqueued in
// batch order, and the ring is FIFO. With durability on and a sync-wait
// class, each touched shard's share rides one group commit. A non-nil
// error means at least one shard refused its share (Store.MultiPut's
// contract); shares on healthy shards still applied.
func (a *AsyncStore) MultiPut(w *core.Worker, kvs []Pair) (int, error) {
	a.checkOpen()
	b := a.newBatch(opMultiPut)
	b.kvs, b.syncWait = kvs, a.st.syncWaitFor(w)
	for i := range kvs {
		a.route(b, kvs[i].Key, i)
	}
	a.runBatch(w, b)
	inserted, err := b.inserted, b.err
	a.freeBatch(b)
	return inserted, err
}

// collectRanges pushes one opRange request per shard (each
// carrying the whole span set) and awaits them all under one election
// cadence. runs[i] holds reqs[i]'s per-shard slices, each in ascending
// key order, ready for mergeRuns. The view matches Store.MultiRange:
// per-shard consistent, all spans seeing each shard at the same
// instant.
func (a *AsyncStore) collectRanges(w *core.Worker, reqs []RangeReq) [][][]Pair {
	rs := make([]*request, len(a.rings))
	for si, q := range a.rings {
		r := a.newReq(opRange)
		r.rng = reqs
		r.parts = make([][]Pair, len(reqs))
		r.q = q
		rs[si] = r
		a.submit(w, r.q, r)
	}
	runs := make([][][]Pair, len(reqs))
	for ri := range runs {
		runs[ri] = make([][]Pair, len(rs))
	}
	// Completion order is as good as shard order: mergeRuns orders by
	// key, and no two shards hold the same one.
	done := 0
	a.awaitAll(w, rs, func(r *request) {
		for ri := range reqs {
			runs[ri][done] = r.parts[ri]
		}
		done++
		a.putReq(r)
	})
	return runs
}

// Range calls fn for every key in [lo, hi] in ascending key order.
// Collection runs through the pipeline (one combiner-executed request
// per shard, so shards are collected in parallel when combiners are
// active); the per-shard runs merge straight into fn, which runs in the
// CALLER, strictly after every shard lock has been released — a
// combiner never executes user callbacks.
func (a *AsyncStore) Range(w *core.Worker, lo, hi uint64, fn func(k uint64, v []byte) bool) {
	a.checkOpen()
	mergeRuns(a.collectRanges(w, []RangeReq{{Lo: lo, Hi: hi}})[0], fn)
}

// MultiRange executes all range requests through the pipeline; out[i]
// is request i's result in ascending key order.
func (a *AsyncStore) MultiRange(w *core.Worker, reqs []RangeReq) [][]Pair {
	a.checkOpen()
	out := make([][]Pair, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	for ri, runs := range a.collectRanges(w, reqs) {
		out[ri] = mergedPairs(runs)
	}
	return out
}

// Flush is the durability barrier: every AsyncStore call returns only
// after its requests have executed, so nothing is left on the rings and
// Flush is the store's own (see Store.Flush). A failed sync degrades
// the shard and returns the typed error.
func (a *AsyncStore) Flush(w *core.Worker) error {
	return a.st.Flush(w)
}

// Close marks the pipeline closed: subsequent pipeline calls panic.
// Callers must have quiesced (a submitter racing Close keeps its own
// liveness — owners always self-serve — but its op may execute after
// Close returns). The underlying Store stays usable.
func (a *AsyncStore) Close(w *core.Worker) {
	if a.closed.Swap(true) {
		return
	}
	// Executed writes are applied but possibly only buffered in the
	// logs; sync them so Close is a durability point. The logs stay
	// open — the Store owns their lifecycle (Store.Close).
	a.st.syncLogs()
}

// CombineStats snapshots every ring's combining counters in shard
// index order.
func (a *AsyncStore) CombineStats() []CombineStats {
	out := make([]CombineStats, len(a.rings))
	for i, q := range a.rings {
		out[i] = q.stats()
	}
	return out
}

// AggregateCombineStats sums CombineStats across shards (DepthHW and
// MaxBatchEff take the max).
func (a *AsyncStore) AggregateCombineStats() CombineStats {
	var agg CombineStats
	for _, c := range a.CombineStats() {
		agg.LockTakes += c.LockTakes
		agg.Combined += c.Combined
		agg.Direct += c.Direct
		agg.Handoffs += c.Handoffs
		if c.DepthHW > agg.DepthHW {
			agg.DepthHW = c.DepthHW
		}
		if c.MaxBatchEff > agg.MaxBatchEff {
			agg.MaxBatchEff = c.MaxBatchEff
		}
		agg.BigTakes += c.BigTakes
		agg.LittleTakes += c.LittleTakes
	}
	return agg
}

// String summarises the pipeline layout.
func (a *AsyncStore) String() string {
	return fmt.Sprintf("shardedkv.AsyncStore{rings: %d, ringSize: %d}", len(a.rings), a.ringSize)
}
