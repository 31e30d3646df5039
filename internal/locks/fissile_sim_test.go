package locks_test

import (
	"math"
	"testing"

	"repro/internal/amp"
	"repro/internal/locks"
	"repro/internal/sim"
	"repro/internal/simlock"
)

// The shipped FissileOn on virtual time (simlock.Env): two big cores of a
// simulated machine with no jitter, so every bound below is exact in
// virtual nanoseconds. The alpha notices a change of the word at its
// next spin step, simlock.SpinStepNs later at most.

func fissileRig() (*sim.Kernel, *amp.Machine, *locks.FissileOn[simlock.Env]) {
	k := sim.NewKernel()
	m := amp.NewMachine(k, amp.Config{Bigs: 2, Littles: 0, JitterPct: -1})
	return k, m, new(locks.FissileOn[simlock.Env])
}

// TestFissileBypassIsBounded: a barger re-locks the instant it unlocks,
// so it always wins the word back on the fast path, yet a queued waiter
// acquires within patience, one of the barger's critical sections and
// two spin steps, because once it has waited past patience it shuts the
// fast path.
func TestFissileBypassIsBounded(t *testing.T) {
	const cs, gap, rounds = 10_000, 100_000, 50
	k, m, f := fissileRig()
	m.NewThread("barger", 0, 0, func(th *amp.Thread) {
		for e := (simlock.Env{T: th}); ; {
			f.Lock(e)
			th.Compute(cs, amp.CS)
			f.Unlock()
		}
	})
	var waits []int64
	m.NewThread("waiter", 1, 0, func(th *amp.Thread) {
		for range rounds {
			th.Compute(gap, amp.NCS)
			start := th.Now()
			f.Lock(simlock.Env{T: th})
			waits = append(waits, th.Now()-start)
			f.Unlock()
		}
	})
	const limit = rounds * (gap + locks.Patience + 2*cs)
	k.Run(limit)
	k.Shutdown()
	if len(waits) < rounds {
		t.Fatalf("the queued waiter acquired %d of %d times in %d ns: the barger bypasses it without bound", len(waits), rounds, limit)
	}
	bound := locks.Patience + cs + 2*simlock.SpinStepNs
	for i, w := range waits {
		if w > bound {
			t.Fatalf("wait %d took %d ns, past patience plus one critical section and two spin steps (%d ns)", i, w, bound)
		}
	}
}

// TestFissileImpatientWaiterShutsFastPath: a waiter queued behind the
// holder is still patient when patience has passed, so the holder,
// unlocking and re-locking at once, keeps the word; two spin steps
// later the waiter has turned impatient, the fast path is shut and the
// waiter goes first; and once it has held the word the fast path is
// open again.
func TestFissileImpatientWaiterShutsFastPath(t *testing.T) {
	const arrive, round = 1_000, 1_000_000
	for _, tc := range []struct {
		name  string
		holds []int64 // per round, how long after the waiter queues the holder re-locks
		first []string
	}{
		{"at patience", []int64{locks.Patience}, []string{"holder"}},
		{"two steps past patience, then at patience",
			[]int64{locks.Patience + 2*simlock.SpinStepNs, locks.Patience},
			[]string{"waiter", "holder"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, m, f := fissileRig()
			var order []string // guarded by f
			m.NewThread("holder", 0, 0, func(th *amp.Thread) {
				e := simlock.Env{T: th}
				for i, hold := range tc.holds {
					th.SleepFor(int64(i)*round - th.Now())
					f.Lock(e)
					th.SleepFor(arrive + hold)
					f.Unlock()
					f.Lock(e)
					order = append(order, "holder")
					f.Unlock()
				}
			})
			m.NewThread("waiter", 1, 0, func(th *amp.Thread) {
				for i := range tc.holds {
					th.SleepFor(int64(i)*round + arrive - th.Now())
					f.Lock(simlock.Env{T: th})
					order = append(order, "waiter")
					f.Unlock()
				}
			})
			k.Run(math.MaxInt64)
			k.Shutdown()
			if len(order) != 2*len(tc.holds) {
				t.Fatalf("order %v: a competitor never acquired", order)
			}
			for i, want := range tc.first {
				if got := order[2*i]; got != want {
					t.Errorf("round %d (re-lock %d ns after the waiter queued): %s went first, want the %s; order %v",
						i, tc.holds[i], got, want, order)
				}
			}
		})
	}
}
