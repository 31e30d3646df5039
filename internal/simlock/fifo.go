package simlock

import (
	"repro/internal/amp"
)

// SimMCS models the MCS queue lock: strict FIFO handover with a
// class-dependent ownership-transfer cost (see xfer). Waiters spin on
// their own line, so no extra cost scales with queue length.
type SimMCS struct {
	// Xfer configures the handover costs.
	Xfer   xfer
	holder *amp.Thread
	q      queue
}

// Lock acquires in FIFO order.
func (m *SimMCS) Lock(t *amp.Thread) {
	if m.holder == nil && m.q.empty() {
		m.holder = t
		m.Xfer.note(t)
		return
	}
	m.q.push(t)
	t.Proc().Suspend() // spin: the core stays occupied
}

// Unlock hands over to the queue head.
func (m *SimMCS) Unlock(t *amp.Thread) {
	if m.holder != t {
		panic("simlock: SimMCS unlock by non-holder")
	}
	if m.q.empty() {
		m.holder = nil
		return
	}
	next := m.q.pop()
	m.holder = next
	next.Proc().Resume(m.Xfer.cost(next.Class()))
}

// IsFree reports whether the lock is free with no waiters.
func (m *SimMCS) IsFree() bool { return m.holder == nil && m.q.empty() }

// SimTicket models the ticket lock. Semantically it is FIFO like MCS,
// but all waiters spin on the shared grant counter, so every handover
// additionally pays a small per-waiter invalidation storm cost — the
// classic reason ticket locks trail MCS at high thread counts.
type SimTicket struct {
	// Xfer configures the handover costs.
	Xfer xfer
	// StormPerWaiter is the extra cost per spinning waiter; zero
	// means 25.
	StormPerWaiter int64
	holder         *amp.Thread
	q              queue
}

func (m *SimTicket) storm() int64 {
	if m.StormPerWaiter == 0 {
		return 25
	}
	return m.StormPerWaiter
}

// Lock acquires in FIFO order.
func (m *SimTicket) Lock(t *amp.Thread) {
	if m.holder == nil && m.q.empty() {
		m.holder = t
		m.Xfer.note(t)
		return
	}
	m.q.push(t)
	t.Proc().Suspend()
}

// Unlock hands over to the queue head.
func (m *SimTicket) Unlock(t *amp.Thread) {
	if m.holder != t {
		panic("simlock: SimTicket unlock by non-holder")
	}
	if m.q.empty() {
		m.holder = nil
		return
	}
	cost := m.storm() * int64(m.q.len())
	next := m.q.pop()
	m.holder = next
	next.Proc().Resume(m.Xfer.cost(next.Class()) + cost)
}

// IsFree reports whether the lock is free with no waiters.
func (m *SimTicket) IsFree() bool { return m.holder == nil && m.q.empty() }

// SimMCSPark models the spin-then-park MCS variant ("MCS-STP",
// Fig. 8h): FIFO handover to a parked waiter, paying the machine's
// wake-up latency (and any run-queue delay behind co-scheduled
// threads) on the critical path at every handover. The brief spinning
// phase of the real lock is omitted: under over-subscription the
// handover almost always outlives any reasonable spin budget, which is
// exactly the regime Bench-6 evaluates. The shipped MCSParkOn, run in
// Env, whose spin step yields an over-subscribed core, does not
// collapse below pthread in Fig. 8h, so the figure keeps this model.
type SimMCSPark struct {
	holder *amp.Thread
	q      queue
}

// Lock acquires in FIFO order, parking while waiting.
func (m *SimMCSPark) Lock(t *amp.Thread) {
	if m.holder == nil && m.q.empty() {
		m.holder = t
		return
	}
	m.q.push(t)
	t.Park() // releases the CPU; Unlock unparks us as holder
}

// Unlock hands over to the queue head, waking it.
func (m *SimMCSPark) Unlock(t *amp.Thread) {
	if m.holder != t {
		panic("simlock: SimMCSPark unlock by non-holder")
	}
	if m.q.empty() {
		m.holder = nil
		return
	}
	next := m.q.pop()
	m.holder = next
	amp.Unpark(next)
}

// IsFree reports whether the lock is free with no waiters.
func (m *SimMCSPark) IsFree() bool { return m.holder == nil && m.q.empty() }
