package simlock

import (
	"repro/internal/amp"
)

// SimBarging models a futex-style blocking mutex with barging
// (pthread_mutex_lock's behaviour under contention): a thread finding
// the lock held goes to sleep; release wakes one sleeper, but the lock
// is marked free immediately, so any running thread that arrives
// before the sleeper finishes waking seizes the lock first. Wake-up
// latency therefore stays off the critical path — the property that
// makes pthread_mutex the only usable blocking baseline when cores are
// over-subscribed (Bench-6, Fig. 8h).
type SimBarging struct {
	held     bool
	sleepers queue
}

// bargingWakeSyscall is the FUTEX_WAKE cost (ns) the unlocker pays when
// there are sleepers. The syscall runs on the releasing thread, slowing
// the holder's fast path — the reason glibc mutexes fall behind
// spinlocks under extreme contention.
const bargingWakeSyscall = 600

// Lock acquires the mutex, sleeping (parked, CPU released) while held.
func (m *SimBarging) Lock(t *amp.Thread) {
	for m.held {
		m.sleepers.push(t)
		t.Park()
		// Woken: one more pass of the acquire loop. If a barger seized
		// the lock during the wake-up we re-queue, like a futex waiter.
	}
	m.held = true
}

// Unlock releases the mutex and wakes one sleeper; the wake syscall
// runs on the releasing thread.
func (m *SimBarging) Unlock(t *amp.Thread) {
	if !m.held {
		panic("simlock: SimBarging unlock while free")
	}
	m.held = false
	if !m.sleepers.empty() {
		amp.Unpark(m.sleepers.pop())
		t.Compute(bargingWakeSyscall, amp.NCS)
	}
}

// IsFree reports whether the mutex is free.
func (m *SimBarging) IsFree() bool { return !m.held }
