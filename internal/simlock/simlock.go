// Package simlock implements the paper's locks inside the discrete-
// event AMP model of internal/amp. SimMCS, SimMCSPark and SimBarging
// model their real counterparts in internal/locks (MCS, MCSParkOn and
// BargingMutex), and SimReorderable models the Algorithm 1 half of
// locks.ASLOn; SimTAS, SimTicket and SimProportional are the paper's
// other baselines, which exist only here. Contention, arbitration and
// handover are modelled explicitly, which is what lets the simulator
// reproduce the collapse phenomena of §2.2 on symmetric host hardware:
//
//   - SimMCS / SimTicket: strict FIFO handover (acquisition fairness)
//   - SimTAS: atomic-operation arbitration with a configurable
//     class-weighted success rate (the paper's little-/big-affinity)
//   - SimBarging: futex-style unfair blocking mutex (pthread stand-in)
//   - SimMCSPark: FIFO with parked waiters (MCS-STP), Fig. 8h's row
//   - SimProportional: ShflLock with the proportional static policy
//   - SimReorderable: the paper's Algorithm 1 over any FIFO here,
//     running the served lock's standby loop (locks.Standby) on virtual
//     time; the figures pair it with the real library's feedback
//     controller (internal/core) for Algorithm 3
//
// In Env (locks.Env) the served locks' own code runs on virtual time:
// SimReorderable's standby loop, and ASLOn, FissileOn and MCSParkOn in
// the tests.
//
// All lock state is mutated in kernel context only (the sim kernel runs
// one goroutine at a time), so the models need no atomics and the
// shipped locks' atomics are sequentially consistent; determinism comes
// from the kernel's total event order plus seeded PRNGs.
package simlock

import (
	"repro/internal/amp"
)

// Lock is a simulated lock usable by class-aware harness code.
type Lock interface {
	// Lock acquires on behalf of thread t, blocking (in virtual time)
	// until granted.
	Lock(t *amp.Thread)
	// Unlock releases; t must be the current holder.
	Unlock(t *amp.Thread)
}

// FIFO is a simulated lock with arrival-order admission that can report
// whether it is free; SimReorderable builds on it.
type FIFO interface {
	Lock
	IsFree() bool
}

// queue is a FIFO of waiting threads (spin-style waiters: their procs
// suspend while still occupying their core, exactly like spinning).
type queue struct {
	ts []*amp.Thread
}

func (q *queue) push(t *amp.Thread) { q.ts = append(q.ts, t) }
func (q *queue) pop() *amp.Thread {
	t := q.ts[0]
	q.ts = q.ts[1:]
	return t
}
func (q *queue) len() int    { return len(q.ts) }
func (q *queue) empty() bool { return len(q.ts) == 0 }
