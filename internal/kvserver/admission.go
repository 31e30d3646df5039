package kvserver

import "sync/atomic"

// Class-aware admission at the serving boundary. Dice & Kogan's
// concurrency-restriction argument is that a saturated lock serves
// best with FEW active threads — extra entrants only lengthen the
// convoy. The shard lock's ASL policy already restricts concurrency
// among waiters; the admission gate applies the same idea one layer
// up, before a request touches the store at all: at most BulkPerShard
// bulk-class operations may be in flight per shard, a bounded number
// more may wait passively, and everything beyond that is REJECTED
// (StatusErrAdmission) so overload sheds instead of queueing without
// bound. Interactive requests bypass the gate entirely — keeping the
// latency-sensitive fast path free of even an uncontended semaphore
// hop is the Fissile-Locks instinct applied to admission.

// AdmissionConfig bounds in-flight bulk operations.
type AdmissionConfig struct {
	// BulkPerShard is the max concurrently executing bulk ops per
	// shard (point ops gate on their key's shard; batch, scan and
	// flush ops gate on one global slot of the same width, since they
	// touch many shards). 0 means DefaultBulkPerShard; negative
	// disables the gate.
	BulkPerShard int
	// BulkWaiters is the max bulk ops allowed to WAIT per gate beyond
	// the in-flight bound before new arrivals are rejected. 0 means
	// 4 × BulkPerShard; negative means no waiting at all (reject the
	// moment the in-flight bound is hit). The bound is enforced
	// against a racy read of the waiter count, so it is approximate
	// under heavy concurrent arrival — a shed-load heuristic, not a
	// hard rail (the in-flight bound IS hard).
	BulkWaiters int
}

// DefaultBulkPerShard is the default per-shard bulk in-flight bound.
// Small on purpose: one combining drain already serves a whole ring,
// so a handful of concurrent bulk entrants saturate a shard.
const DefaultBulkPerShard = 4

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.BulkPerShard == 0 {
		c.BulkPerShard = DefaultBulkPerShard
	}
	if c.BulkWaiters == 0 && c.BulkPerShard > 0 {
		c.BulkWaiters = 4 * c.BulkPerShard
	}
	return c
}

// gate is one shard's bulk admission state: a token semaphore (channel
// capacity = in-flight bound) plus a waiter counter.
type gate struct {
	tokens  chan struct{}
	waiters atomic.Int64
}

// admission is the server-wide gate set: gates[i] for shard i, and
// one more, the global gate, for multi-shard ops. Placement is fixed
// for the store's life, so the set is built once, sized from the
// store's shard count.
type admission struct {
	waiterCap int
	gates     []gate
	rejected  atomic.Uint64
	waited    atomic.Uint64
}

func newAdmission(cfg AdmissionConfig, shards int) *admission {
	cfg = cfg.withDefaults()
	if cfg.BulkPerShard < 0 {
		return nil // gate disabled
	}
	a := &admission{waiterCap: cfg.BulkWaiters, gates: make([]gate, shards+1)}
	for i := range a.gates {
		a.gates[i].tokens = make(chan struct{}, cfg.BulkPerShard)
	}
	return a
}

// global returns the index of the gate shared by multi-shard ops.
func (a *admission) global() int { return len(a.gates) - 1 }

// enter admits one bulk op through gate i (a shard index, or global()
// for multi-shard ops): immediately when an in-flight slot is free,
// after a passive wait when the waiter bound allows, not at all
// otherwise. The returned gate must be released via exit iff admitted.
func (a *admission) enter(i int) (*gate, bool) {
	g := &a.gates[i]
	select {
	case g.tokens <- struct{}{}:
		return g, true
	default:
	}
	if g.waiters.Load() >= int64(a.waiterCap) {
		a.rejected.Add(1)
		return nil, false
	}
	g.waiters.Add(1)
	a.waited.Add(1)
	g.tokens <- struct{}{}
	g.waiters.Add(-1)
	return g, true
}

// exit releases an admitted op's slot.
func (a *admission) exit(g *gate) { <-g.tokens }

// AdmissionStats is a snapshot of the gate set.
type AdmissionStats struct {
	// InFlight and Waiting are the current bulk ops holding slots and
	// blocked on slots, summed across gates (the queue-depth signal).
	InFlight, Waiting int64
	// Waited counts admissions that had to block first; Rejected
	// counts arrivals shed with StatusErrAdmission.
	Waited, Rejected uint64
}

func (a *admission) stats() AdmissionStats {
	st := AdmissionStats{
		Waited:   a.waited.Load(),
		Rejected: a.rejected.Load(),
	}
	for i := range a.gates {
		st.InFlight += int64(len(a.gates[i].tokens))
		st.Waiting += a.gates[i].waiters.Load()
	}
	return st
}
