package shardedkv

import "repro/internal/core"

// This file provides the op-level class override surface: a view of a
// KV whose every operation runs under a fixed core.Class regardless of
// the worker's base class. The mechanism is the per-operation
// ClassHint on core.Worker — the view installs the hint, runs the
// operation, and restores the worker's previous hint state — so the
// override reaches every class consumer on the path:
// the shard lock's acquire policy (ASL big/little admission), combiner
// election cadence and spin-vs-park waiting in the pipeline, epoch
// feedback, and the CSPad keying.
//
// This is the serving-boundary contract of the network front end
// (internal/kvserver): one connection-handler goroutine owns one
// worker but serves requests of BOTH SLO classes, so class must ride
// on the operation, not the goroutine. Views are small values; make
// them on the fly: st.As(core.Little).Put(w, k, v).

// classScope saves a worker's hint state and installs an override.
// Restore with restore() — NOT a defer in hot paths; call it on every
// return path (the ops below have exactly one).
type classScope struct {
	w      *core.Worker
	hinted bool
	prev   core.Class
}

func enterClass(w *core.Worker, c core.Class) classScope {
	s := classScope{w: w, hinted: w.ClassHinted(), prev: w.Class()}
	//lint:ignore classhintpair enterClass IS the set half of the pair; every caller is a single-return Classed method that calls restore() before returning, which the ops below make structurally obvious.
	w.SetClassHint(c)
	return s
}

func (s classScope) restore() {
	if s.hinted {
		//lint:ignore classhintpair this SetClassHint restores the caller's saved hint (the clear half of the pair), it does not install a new scope.
		s.w.SetClassHint(s.prev)
	} else {
		s.w.ClearClassHint()
	}
}

// Classed is a view of a KV whose operations run as a fixed class:
// each installs the class as the worker's hint, calls through, and
// restores the previous hint state. Over an AsyncStore the class
// governs election cadence, spin-vs-park waiting and the drain bound
// if this worker combines — what distinguishes an interactive request
// (elect/combine/spin) from a bulk one (enqueue/park).
type Classed struct {
	kv KV
	c  core.Class
}

// As returns a view of the store whose operations run with the
// worker's class overridden to c for the operation's duration.
func (s *Store) As(c core.Class) Classed { return Classed{kv: s, c: c} }

// As returns a view of the async store whose operations run with the
// worker's class overridden to c.
func (a *AsyncStore) As(c core.Class) Classed { return Classed{kv: a, c: c} }

// Get reads k as the view's class.
func (v Classed) Get(w *core.Worker, k uint64) ([]byte, bool) {
	sc := enterClass(w, v.c)
	val, ok := v.kv.Get(w, k)
	sc.restore()
	return val, ok
}

// Put stores k=v as the view's class; reports insert-vs-replace.
func (v Classed) Put(w *core.Worker, k uint64, val []byte) (bool, error) {
	sc := enterClass(w, v.c)
	ok, err := v.kv.Put(w, k, val)
	sc.restore()
	return ok, err
}

// Delete removes k as the view's class; reports presence.
func (v Classed) Delete(w *core.Worker, k uint64) (bool, error) {
	sc := enterClass(w, v.c)
	ok, err := v.kv.Delete(w, k)
	sc.restore()
	return ok, err
}

// MultiGet reads all keys as the view's class.
func (v Classed) MultiGet(w *core.Worker, keys []uint64) ([][]byte, []bool) {
	sc := enterClass(w, v.c)
	vals, ok := v.kv.MultiGet(w, keys)
	sc.restore()
	return vals, ok
}

// MultiPut writes all pairs as the view's class.
func (v Classed) MultiPut(w *core.Worker, kvs []Pair) (int, error) {
	sc := enterClass(w, v.c)
	n, err := v.kv.MultiPut(w, kvs)
	sc.restore()
	return n, err
}

// Range scans [lo, hi] as the view's class. fn runs inside the scope
// (collection has already released every shard lock when it runs).
func (v Classed) Range(w *core.Worker, lo, hi uint64, fn func(k uint64, v []byte) bool) {
	sc := enterClass(w, v.c)
	v.kv.Range(w, lo, hi, fn)
	sc.restore()
}

// MultiRange executes all range requests as the view's class.
func (v Classed) MultiRange(w *core.Worker, reqs []RangeReq) [][]Pair {
	sc := enterClass(w, v.c)
	out := v.kv.MultiRange(w, reqs)
	sc.restore()
	return out
}

// Flush drives the write/durability barrier as the view's class (over
// an AsyncStore the class governs the combining the flush performs).
func (v Classed) Flush(w *core.Worker) error {
	sc := enterClass(w, v.c)
	err := v.kv.Flush(w)
	sc.restore()
	return err
}

// Close shuts the shared underlying front end down (see Store.Close,
// AsyncStore.Close).
func (v Classed) Close(w *core.Worker) {
	sc := enterClass(w, v.c)
	v.kv.Close(w)
	sc.restore()
}

// Stats snapshots the underlying store's per-shard counters.
func (v Classed) Stats() []ShardStats { return v.kv.Stats() }
