// Package consumerfix is the fixture stand-in for a network front end
// sitting on top of the store: its violations are only visible through
// the facts imported from locksfix and storefix — the cross-package
// half of the lockorder contract.
package consumerfix

import (
	"locksfix"
	"storefix"
)

// Server stands in for the kvserver front end.
type Server struct {
	mu locksfix.WLock
	st *storefix.Store
}

// goodServe keeps the server lock and the store call disjoint.
func (s *Server) goodServe(w *locksfix.Worker, k uint64) {
	s.mu.Acquire(w)
	s.mu.Release(w)
	s.st.Get(w, k)
}

// badServe calls into the store while holding the server lock: Get's
// imported summary says it acquires shard locks, and engine-internal
// locks must never wrap back around a shard lock.
func (s *Server) badServe(w *locksfix.Worker, k uint64) {
	s.mu.Acquire(w)
	s.st.Get(w, k) // want `lock-order inversion in badServe: acquiring storefix\.shard\.lock \(shard lock\) while holding consumerfix\.Server\.mu \(engine-internal\)`
	s.mu.Release(w)
}

// reenter double-acquires the server lock.
func (s *Server) reenter(w *locksfix.Worker) {
	s.mu.Acquire(w)
	s.mu.Acquire(w) // want `consumerfix\.Server\.mu acquired in reenter while already held \(self-deadlock\)`
	s.mu.Release(w)
}

// UseBoth follows the Pair's declared A-then-B order through the
// imported helper summaries: clean.
func UseBoth(w *locksfix.Worker, p *locksfix.Pair) {
	p.LockBoth(w)
	p.UnlockBoth(w)
}

// Invert takes the Pair backwards: B then A. The A→B edge lives in
// locksfix's exported graph, so this closes a cross-package cycle.
func Invert(w *locksfix.Worker, p *locksfix.Pair) {
	p.B.Acquire(w)
	p.A.Acquire(w) // want `lock-order cycle in Invert: acquiring locksfix\.Pair\.A while holding locksfix\.Pair\.B closes locksfix\.Pair\.B → locksfix\.Pair\.A → locksfix\.Pair\.B`
	p.A.Release(w)
	p.B.Release(w)
}

// ReenterCounted double-acquires through the counting wrapper from two
// packages away: both held-set entries come from locksfix's imported
// summaries, and the self-deadlock is reported against the delegated
// inner class even though no lock field is named at this call site.
func ReenterCounted(w *locksfix.Worker, c *locksfix.Counted) {
	c.Acquire(w)
	c.Acquire(w) // want `locksfix\.Counted\.inner acquired in ReenterCounted while already held \(self-deadlock\)`
	c.Release(w)
	c.Release(w)
}

// TryCountedRefined exercises the try-branch refinement through the
// wrapper's summary: on the failed-try path nothing is held, so the
// Pair acquisition there is clean.
func TryCountedRefined(w *locksfix.Worker, c *locksfix.Counted, p *locksfix.Pair) {
	if !c.TryAcquire(w) {
		p.LockBoth(w)
		p.UnlockBoth(w)
		return
	}
	c.Release(w)
}
