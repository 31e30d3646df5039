package locks_test

import (
	"slices"
	"testing"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/sim"
	"repro/internal/simlock"
)

// ASLOn on virtual time (simlock.Env). Each competitor runs on its own
// big core of a simulated machine with no jitter, so every time below is
// exact in virtual nanoseconds; a worker's class is its own, not its
// core's. ASLMutex is this code on the wall clock.

// outsideEpoch marks a competitor that locks outside any epoch, so its
// window is the default maximum.
const outsideEpoch = -1

// competitor arrives at `at`, locks as a worker of class, inside an
// epoch whose controller holds window (or outsideEpoch), and holds the
// lock for hold ns.
type competitor struct {
	name     string
	class    core.Class
	window   int64
	at, hold int64
}

// acquisition is who took the lock, and when.
type acquisition struct {
	name string
	at   int64
}

// runASL runs the competitors on one ASLOn until each has released it,
// failing the test if one has not acquired by limit, and returns the
// acquisitions in order.
func runASL(t *testing.T, limit int64, cs ...competitor) []acquisition {
	t.Helper()
	k := sim.NewKernel()
	m := amp.NewMachine(k, amp.Config{Bigs: len(cs), JitterPct: -1})
	var l locks.ASLOn[simlock.Env]
	var got []acquisition // guarded by l
	for i, c := range cs {
		cfg := core.WorkerConfig{Class: c.class, Clock: k.Now}
		if c.window != outsideEpoch {
			cfg.NewController = func() core.Controller { return &core.Static{W: c.window} }
		}
		w := core.NewWorker(cfg)
		m.NewThread(c.name, i, c.at, func(th *amp.Thread) {
			if c.window != outsideEpoch {
				w.EpochStart(0)
			}
			l.Lock(simlock.Env{T: th}, w)
			got = append(got, acquisition{c.name, th.Now()})
			th.Compute(c.hold, amp.CS)
			l.Unlock()
		})
	}
	k.Run(limit)
	k.Shutdown()
	if len(got) != len(cs) {
		t.Fatalf("by %d ns only %v acquired, of %d competitors", limit, got, len(cs))
	}
	return got
}

// order is the names of acquisitions, in order.
func order(as []acquisition) []string {
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.name
	}
	return names
}

// TestReorderableFreeFastPath: a little worker takes a free lock the instant
// it arrives, whatever its window (§3.4: "no additional overhead" when
// uncontended).
func TestReorderableFreeFastPath(t *testing.T) {
	got := runASL(t, 10_000_000,
		competitor{"little", core.Little, outsideEpoch, 10_000, 10_000},
		competitor{"little in an epoch", core.Little, 500_000, 30_000, 0},
	)
	for i, want := range []int64{10_000, 30_000} {
		if got[i].at != want {
			t.Fatalf("%s took the free lock at %d ns, want at its arrival, %d", got[i].name, got[i].at, want)
		}
	}
}

// TestReorderableWindowDelaysStandby: a little worker that finds the
// lock held stands by inside its epoch's 500 µs window, so a big worker
// that queues meanwhile overtakes it; the little worker still acquires
// once the big one releases, long before its window ends. The case is
// named for the base ASLOn holds; Algorithm 1 over the paper's MCS is
// simlock's TestSimReorderable*.
func TestReorderableWindowDelaysStandby(t *testing.T) {
	t.Run("fissile", func(t *testing.T) {
		const window = 500_000
		got := runASL(t, 10_000_000,
			competitor{"holder", core.Big, outsideEpoch, 0, 100_000},
			competitor{"little", core.Little, window, 10_000, 10_000},
			competitor{"big", core.Big, outsideEpoch, 50_000, 10_000},
		)
		if o := order(got); !slices.Equal(o, []string{"holder", "big", "little"}) {
			t.Fatalf("order %v, want the big worker to overtake the standby little one", o)
		}
		if at := got[2].at; at >= 10_000+window {
			t.Fatalf("the little worker acquired at %d ns, past its window's end at %d", at, 10_000+window)
		}
	})
}

// TestReorderableWindowExpiry: once its 30 µs window ends the little
// worker queues even though the lock is still held, so a big worker that
// queued inside the window goes before it and one that queues after the
// window goes after it: reordering is bounded by the window. The case is
// named as in TestReorderableWindowDelaysStandby.
func TestReorderableWindowExpiry(t *testing.T) {
	t.Run("fissile", func(t *testing.T) {
		got := runASL(t, 10_000_000,
			competitor{"holder", core.Big, outsideEpoch, 0, 200_000},
			competitor{"little", core.Little, 30_000, 10_000, 10_000},
			competitor{"big inside", core.Big, outsideEpoch, 20_000, 10_000},
			competitor{"big after", core.Big, outsideEpoch, 100_000, 10_000},
		)
		if o := order(got); !slices.Equal(o, []string{"holder", "big inside", "little", "big after"}) {
			t.Fatalf("order %v, want the little worker between the big worker that queued inside its window and the one that queued after it", o)
		}
	})
}

// TestReorderableStandbySleeps covers the standby's sleep leg: the lock is
// held for 2 ms, well past the served flavour's 20 µs yielding poll, so
// the little worker, outside any epoch and so on the default maximum
// window, is sleeping between checks when the lock is freed. It must
// notice at its next check, at most one 1 ms sleep slice later, not
// when its window ends.
func TestReorderableStandbySleeps(t *testing.T) {
	const hold, slice = 2_000_000, 1_000_000
	got := runASL(t, 2*core.DefaultMaxWindow,
		competitor{"holder", core.Big, outsideEpoch, 0, hold},
		competitor{"little", core.Little, outsideEpoch, 10_000, 0},
	)
	if lag := got[1].at - hold; lag <= 0 || lag > slice {
		t.Fatalf("the sleeping standby acquired %d ns after the release, want within one %d ns sleep slice", lag, slice)
	}
}

// TestASLMutexHandsLittleWorkersTheirWindow checks the window Lock
// hands a little worker's standby, both ways. Outside any epoch it is
// the default maximum window: the little worker stands by on the held
// lock, a big worker queues meanwhile, and on release the big worker
// acquires first. Inside an epoch whose controller holds a zero window
// the little worker queues at once, so it acquires ahead of a big worker
// that queues after it.
func TestASLMutexHandsLittleWorkersTheirWindow(t *testing.T) {
	for _, tc := range []struct {
		name   string
		window int64
		first  string
	}{
		{"outside-epoch", outsideEpoch, "big"},
		{"zero-window-epoch", 0, "little"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runASL(t, 10_000_000,
				competitor{"holder", core.Big, outsideEpoch, 0, 100_000},
				competitor{"little", core.Little, tc.window, 10_000, 10_000},
				competitor{"big", core.Big, outsideEpoch, 50_000, 10_000},
			)
			if o := order(got); o[1] != tc.first {
				t.Fatalf("order %v, want the %s worker first after the holder", o, tc.first)
			}
		})
	}
}
