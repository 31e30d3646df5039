package kvserver

import "sync/atomic"

// Class-aware admission at the serving boundary. Dice & Kogan's
// concurrency-restriction argument is that a saturated lock serves
// best with FEW active threads — extra entrants only lengthen the
// convoy. The shard lock's ASL policy already restricts concurrency
// among waiters; the admission gate applies the same idea one layer
// up, before a request touches the store at all: at most BulkPerShard
// bulk-class operations may be in flight per shard, and the rest wait
// passively for a slot. Nothing is shed: each connection has one
// request in flight at the server, so the connection count already
// bounds the waiters. Interactive requests bypass the gate entirely —
// keeping the latency-sensitive fast path free of even an uncontended
// semaphore hop is the Fissile-Locks instinct applied to admission.

// AdmissionConfig bounds in-flight bulk operations.
type AdmissionConfig struct {
	// BulkPerShard is the max concurrently executing bulk ops per
	// shard (point ops gate on their key's shard; batch, scan and
	// flush ops gate on one global slot of the same width, since they
	// touch many shards). 0 means DefaultBulkPerShard; negative
	// disables the gate.
	BulkPerShard int
}

// DefaultBulkPerShard is the default per-shard bulk in-flight bound.
// Small on purpose: one combining drain already serves a whole queue,
// so a handful of concurrent bulk entrants saturate a shard.
const DefaultBulkPerShard = 4

// admission is the server-wide gate set: gates[i] for shard i, and
// one more, the global gate, for multi-shard ops. Each gate is a token
// semaphore whose capacity is the in-flight bound. Placement is fixed
// for the store's life, so the set is built once, sized from the
// store's shard count.
type admission struct {
	gates  []chan struct{}
	waited atomic.Uint64
}

func newAdmission(cfg AdmissionConfig, shards int) *admission {
	bound := cfg.BulkPerShard
	if bound == 0 {
		bound = DefaultBulkPerShard
	}
	if bound < 0 {
		return nil // gate disabled
	}
	a := &admission{gates: make([]chan struct{}, shards+1)}
	for i := range a.gates {
		a.gates[i] = make(chan struct{}, bound)
	}
	return a
}

// global returns the index of the gate shared by multi-shard ops.
func (a *admission) global() int { return len(a.gates) - 1 }

// enter admits one bulk op through gate i (a shard index, or global()
// for multi-shard ops): immediately when an in-flight slot is free,
// after a passive wait otherwise. The returned gate must be released
// via exit.
func (a *admission) enter(i int) chan struct{} {
	g := a.gates[i]
	select {
	case g <- struct{}{}:
		return g
	default:
	}
	a.waited.Add(1)
	g <- struct{}{}
	return g
}

// exit releases an admitted op's slot.
func (a *admission) exit(g chan struct{}) { <-g }

// AdmissionStats is a snapshot of the gate set.
type AdmissionStats struct {
	// InFlight is the current bulk ops holding slots, summed across
	// gates.
	InFlight int64
	// Waited counts admissions that had to block first.
	Waited uint64
}

func (a *admission) stats() AdmissionStats {
	st := AdmissionStats{Waited: a.waited.Load()}
	for _, g := range a.gates {
		st.InFlight += int64(len(g))
	}
	return st
}
