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
// Every shard gets a lock-free MPSC request queue (see reqQueue).
// Callers build a request (Get/Put/Delete plus a future), push it, and
// wait for completion — spinning or parking according to their core
// class. Batches and scans (MultiGet/MultiPut/Range) do not enter the
// queues: they are the wrapped Store's own calls, which take each
// touched shard lock once, so delegating them would restrict nothing.
// Whoever wins the shard lock's TryAcquire becomes the combiner
// and drains the queue: up to maxDrain, queued operations execute
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
// A combiner drains at most maxDrain = 8 requests per lock take, for
// either class. A combiner on a hot shard also lingers a bounded few
// microseconds when its queue runs momentarily dry, picking up
// in-flight producers instead of paying them a fresh lock take each.
// The linger is gated on hwRecent, a decaying depth estimate raised at
// push; a drain that runs the queue dry short of maxDrain ages it by
// 3/4, so one burst does not hold the gate open.
//
// Both were decided on point traffic with `make pipe-grid` (hashkv,
// zipf and zipfw, 4 shards, half the workers big, a 2-CPU host; the
// pipe-asl rows of 10 alternating runs per side). At 8 threads an
// earlier bound that adapted per shard between 8 and 256 sat at 8 and
// matched the constant: little p99 ~64 µs, inside the 100 µs SLO. At
// 32 threads it grew to 32, and the constant cut the median big p99
// from ~295 to ~142 µs and the little p99 from ~170 to ~135 µs: short
// drains hand the lock on sooner, Dice & Kogan's small fixed active set
// rather than a growing one. The linger is the load-bearing part. At 8
// threads, deleting it, gating it on the drain's own count instead of
// hwRecent, or pairing it with a constant bound of 32 each put the
// median little p99 at 230-330 µs.

// opKind is a pipeline request type.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDelete
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
	key  uint64
	val  []byte // Put value: what the engine may keep (Store.owned)

	// syncWait marks a waited write whose class demands group commit:
	// the executor appends to the shard's log as usual but the drain
	// holds the future back (in its pend list) and completes it only
	// after releasing the shard lock and committing the record — the
	// combiner's whole batch rides ONE fsync, and the fsync never runs
	// under a shard lock.
	syncWait bool

	// Results, written by the executor before complete().
	rval []byte // Get: stored value
	rok  bool   // Get: found / Put: inserted / Delete: was present
	err  error  // write failure (degraded shard / log error)
	// mark is the group commit a logged write is owed: the executing
	// shard's log up to the request's last record. lsn 0 (no record)
	// without durability and for reads.
	mark walMark

	state atomic.Uint32
	wake  chan struct{} // buffered(1); one token per park/wake pair
	timer *time.Timer   // lazily built; parks are timed for liveness

	next atomic.Pointer[request] // the next newer request in its reqQueue
}

// isDone reports completion.
func (r *request) isDone() bool { return r.state.Load() == futDone }

// complete publishes the result and wakes a parked owner. This is the
// completer's LAST touch of r: the owner may recycle it immediately
// after observing done. A combiner calls it with the shard lock held
// (finishOrDefer). That is safe: the swap to done succeeds once per
// use of r, so at most one token is ever sent on the buffered(1) wake
// channel, and the send cannot block.
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

// Drain tuning. maxDrain bounds one drain, for either class: reaching
// it releases the lock (so big-core FIFO entrants and sync-path users
// get their turn) and re-elects if the queue is still non-empty.
const (
	maxDrain = 8
	// lingerSpins bounds the combiner's dry-queue linger on a hot shard
	// (hwRecent >= lingerMinDepth): a few hundred spin units trade a
	// hair of hold time for whole lock takes saved by the producers
	// arriving meanwhile.
	lingerSpins    = 384
	lingerMinDepth = 4
)

// AsyncConfig configures an AsyncStore. It has no fields: the request
// queue needs no capacity.
type AsyncConfig struct{}

// pipeShard is one shard's pipeline state: the request queue plus
// combining counters. NewAsync builds one per shard.
type pipeShard struct {
	sh    *shard
	queue reqQueue
	// hwRecent is a decaying queue-depth estimate (requests): raised
	// like depthHW at push, decayed by dry drains. It gates the linger.
	hwRecent  atomic.Uint64
	lockTakes atomic.Uint64
	combined  atomic.Uint64
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
	d := q.queue.Len()
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

// CombineStats is a snapshot of one shard's combining counters.
type CombineStats struct {
	// LockTakes counts combiner elections won that drained work.
	LockTakes uint64
	// Combined counts operations executed on the async path: one per
	// queued Get, Put or Delete. Combined / LockTakes is the
	// ops-per-lock-take the pipeline exists to raise above 1.
	Combined uint64
	// Direct is always 0: the request queue has no capacity to overflow,
	// so every request is executed by a combiner's drain. It stays while
	// the benchmark's shardedkv.combine_direct_pct reads it.
	Direct uint64
	// Handoffs counts lock takes won by a different worker than the
	// previous combiner — combiner identity churn.
	Handoffs uint64
	// DepthHW is the queue-depth high-water mark observed at push.
	DepthHW uint64
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
		Handoffs:    q.handoffs.Load(),
		DepthHW:     q.depthHW.Load(),
		BigTakes:    q.takesBy[core.Big].Load(),
		LittleTakes: q.takesBy[core.Little].Load(),
	}
}

// AsyncStore is the combining front end. It wraps a Store and shares
// its shard locks, so async and plain synchronous calls on the same
// Store interleave safely (sync holders simply delay the combiner). Its
// batches and scans are the Store's own calls.
// All methods are safe for concurrent use; as everywhere in this
// repository, each goroutine must own its *core.Worker.
type AsyncStore struct {
	st *Store
	// pipes[i] is shard i's pipeline state, fixed at NewAsync.
	pipes  []*pipeShard
	pool   sync.Pool // *request
	closed atomic.Bool
}

// NewAsync builds a combining front end over st: one request queue per
// shard.
func NewAsync(st *Store, _ AsyncConfig) *AsyncStore {
	a := &AsyncStore{st: st}
	a.pool.New = func() any { return &request{wake: make(chan struct{}, 1)} }
	a.pipes = make([]*pipeShard, len(st.shards))
	for i, sh := range st.shards {
		q := &pipeShard{sh: sh}
		q.queue.init()
		a.pipes[i] = q
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
	r.val, r.rval = nil, nil
	r.rok, r.syncWait = false, false
	r.err, r.mark = nil, walMark{}
	a.pool.Put(r)
}

// finishOrDefer completes r, or parks it on pend when its future must
// wait for group commit. Called with the executing shard's lock held;
// the deferral is what keeps wal.Commit off the locked path. Every
// other future completes here, under the lock, on purpose: the wake
// cannot block (see complete), and the owner goes on as soon as its op
// is applied instead of waiting for the whole drain.
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
func (s *Store) completePending(w *core.Worker, pend []*request) {
	for _, r := range pend {
		if r.err == nil {
			r.err = s.commit(w, r.mark)
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
	return a.pipes[a.st.ShardOf(k)]
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

// drain executes up to maxDrain queued requests; the caller holds q's
// shard lock. A combiner whose queue runs momentarily dry on a hot shard
// lingers briefly for in-flight producers before giving the lock up.
// Returns the number executed. Sync-wait writes are applied and logged
// here but their futures land on pend; the caller completes them after
// release (see completePending).
func (a *AsyncStore) drain(w *core.Worker, q *pipeShard, pend *[]*request) int {
	n, linger := 0, 0
	var s locks.Spinner
	for n < maxDrain {
		r := q.queue.pop()
		if r == nil {
			if n > 0 && linger < lingerSpins && q.hwRecent.Load() >= lingerMinDepth {
				linger++
				s.Spin()
				continue
			}
			break
		}
		n++
		a.exec(w, q.sh, r)
		a.finishOrDefer(r, pend)
	}
	if n > 0 {
		q.combined.Add(uint64(n))
	}
	// A drain that ran the queue dry ages the recent-depth estimate
	// (integer decay that reaches 0, so one burst does not read as
	// lasting depth). The plain store racing a concurrent noteDepth CAS
	// is advisory only.
	if n < maxDrain && q.queue.Empty() {
		q.hwRecent.Store(q.hwRecent.Load() * 3 / 4)
	}
	return n
}

// tryCombine runs ONE combiner election on q's shard; a win drains at
// most maxDrain queued ops under a single lock take.
// Reports whether it actually drained work — callers spin-wait on
// false, which also covers the won-but-empty case (a producer stalled
// between its swap and its link). A failed TryAcquire means
// whoever holds the lock is either a combiner (and is draining) or a
// sync-path user of the shared lock (and will release soon) — the
// caller keeps waiting on its own future either way. Bounding each
// call to one take keeps a busy shard from turning its current
// combiner into a permanent server: between batches the lock is
// released, FIFO entrants and sync-path users get their turn, and the
// ex-combiner re-checks its own future before volunteering again.
func (a *AsyncStore) tryCombine(w *core.Worker, q *pipeShard) bool {
	if q.queue.Empty() {
		return false
	}
	if !q.sh.tryAcquire(w) {
		return false
	}
	// Count the take only when it drains something: empty takes must
	// not dilute the ops-per-lock-take metric.
	var pend []*request
	n := a.drain(w, q, &pend)
	if n > 0 {
		q.noteTake(w)
	}
	q.sh.release(w)
	a.st.completePending(w, pend)
	return n > 0
}

// run pushes r on q and waits for it with the class's election
// cadence: both classes sit out one cadence before their first try — a
// request pushed while a combiner is active is usually drained within a
// few passes, and electing before that just buys a singleton batch. Bigs
// re-try every few passes (strong cores combine); littles wait out a
// much longer cadence, giving any big-core waiter the win before serving
// themselves. When patience runs out the owner parks. Parks are timed,
// so even a worst-case interleaving (combiner released just before we
// parked, nobody else awake) only costs one park slice, not liveness.
// Once pushed, r belongs to whichever combiner executes it until it
// completes.
func (a *AsyncStore) run(w *core.Worker, q *pipeShard, r *request) {
	q.queue.push(r)
	q.noteDepth()
	elect, parkAfter := littleElect, littleParkAfter
	if w.Class() == core.Big {
		elect, parkAfter = bigElect, bigParkAfter
	}
	slice := minParkSlice
	var s locks.Spinner
	for pass := 0; !r.isDone(); pass++ {
		if pass%elect == elect-1 && a.tryCombine(w, q) {
			continue
		}
		if pass >= parkAfter {
			if !r.parkWait(slice) && slice < maxParkSlice {
				slice *= 2
			}
			continue
		}
		s.Spin()
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
// with Store.Put, v is borrowed for the call: an engine that keeps its
// argument is handed a copy made here, on the caller's goroutine, before
// the request is queued, so the combiner never copies. With durability
// on and a sync-wait class, the call returns only after the record is
// fsynced — riding whichever group commit the
// executing combiner's batch leads or joins. A log failure surfaces
// here as Store.Put's typed error: the executing combiner records it
// on the future (degrading the shard) and the owner reads it back.
func (a *AsyncStore) Put(w *core.Worker, k uint64, v []byte) (bool, error) {
	a.checkOpen()
	r := a.newReq(opPut)
	r.key, r.val = k, a.st.owned(v)
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

// MultiGet is the wrapped Store's MultiGet: a batch takes each touched
// shard lock once on its own, so the queues would restrict nothing.
func (a *AsyncStore) MultiGet(w *core.Worker, keys []uint64) ([][]byte, []bool) {
	a.checkOpen()
	return a.st.MultiGet(w, keys)
}

// MultiPut is the wrapped Store's MultiPut, for the reason MultiGet is.
func (a *AsyncStore) MultiPut(w *core.Worker, kvs []Pair) (int, error) {
	a.checkOpen()
	return a.st.MultiPut(w, kvs)
}

// Range is the wrapped Store's Range: a scan takes each shard lock once
// and runs fn after the last release.
func (a *AsyncStore) Range(w *core.Worker, lo, hi uint64, fn func(k uint64, v []byte) bool) {
	a.checkOpen()
	a.st.Range(w, lo, hi, fn)
}

// Flush is the durability barrier: every AsyncStore call returns only
// after its requests have executed, so nothing is left on the queues and
// Flush is the store's own (see Store.Flush). A failed sync degrades
// the shard and returns the typed error.
func (a *AsyncStore) Flush(w *core.Worker) error {
	return a.st.Flush(w)
}

// Close marks the pipeline closed: subsequent AsyncStore calls panic.
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
	a.st.syncLogs(w)
}

// CombineStats snapshots every shard's combining counters in shard
// index order.
func (a *AsyncStore) CombineStats() []CombineStats {
	out := make([]CombineStats, len(a.pipes))
	for i, q := range a.pipes {
		out[i] = q.stats()
	}
	return out
}

// AggregateCombineStats sums CombineStats across shards (DepthHW takes
// the max).
func (a *AsyncStore) AggregateCombineStats() CombineStats {
	var agg CombineStats
	for _, c := range a.CombineStats() {
		agg.LockTakes += c.LockTakes
		agg.Combined += c.Combined
		agg.Handoffs += c.Handoffs
		if c.DepthHW > agg.DepthHW {
			agg.DepthHW = c.DepthHW
		}
		agg.BigTakes += c.BigTakes
		agg.LittleTakes += c.LittleTakes
	}
	return agg
}

// String summarises the pipeline layout.
func (a *AsyncStore) String() string {
	return fmt.Sprintf("shardedkv.AsyncStore{shards: %d}", len(a.pipes))
}
