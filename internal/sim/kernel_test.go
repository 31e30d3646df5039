package sim

import (
	"math"
	"testing"
)

func TestKernelEventOrder(t *testing.T) {
	k := NewKernel()
	var got []int
	k.Schedule(30, func() { got = append(got, 3) })
	k.Schedule(10, func() { got = append(got, 1) })
	k.Schedule(20, func() { got = append(got, 2) })
	k.Run(math.MaxInt64)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if k.Now() != 30 {
		t.Fatalf("clock = %d, want 30", k.Now())
	}
}

func TestKernelTieBreakBySchedulingOrder(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5, func() { got = append(got, i) })
	}
	k.Run(math.MaxInt64)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events must fire in scheduling order: %v", got)
		}
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.Schedule(10, func() { fired++ })
	k.Schedule(100, func() { fired++ })
	k.Run(50)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (second event beyond the limit)", fired)
	}
	if k.Now() != 50 {
		t.Fatalf("now = %d, want clamped to 50", k.Now())
	}
	k.Run(200) // the deferred event must still fire on a later Run
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestKernelNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative delay")
		}
	}()
	NewKernel().Schedule(-1, func() {})
}

func TestProcSleep(t *testing.T) {
	k := NewKernel()
	var times []int64
	k.Spawn("p", 0, func(p *Proc) {
		times = append(times, p.Now())
		p.Sleep(100)
		times = append(times, p.Now())
		p.Sleep(0) // zero-length sleep is a valid scheduling point
		times = append(times, p.Now())
	})
	k.Run(math.MaxInt64)
	if len(times) != 3 || times[0] != 0 || times[1] != 100 || times[2] != 100 {
		t.Fatalf("times = %v", times)
	}
}

func TestProcInterleaving(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("a", 0, func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(10)
		order = append(order, "a10")
		p.Sleep(20)
		order = append(order, "a30")
	})
	k.Spawn("b", 5, func(p *Proc) {
		order = append(order, "b5")
		p.Sleep(10)
		order = append(order, "b15")
	})
	k.Run(math.MaxInt64)
	want := []string{"a0", "b5", "a10", "b15", "a30"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSuspendResume(t *testing.T) {
	k := NewKernel()
	var waiter *Proc
	var got []int64
	k.Spawn("waiter", 0, func(p *Proc) {
		waiter = p
		p.Suspend()
		got = append(got, p.Now())
	})
	k.Spawn("waker", 0, func(p *Proc) {
		p.Sleep(42)
		waiter.Resume(8)
	})
	k.Run(math.MaxInt64)
	if len(got) != 1 || got[0] != 50 {
		t.Fatalf("waiter resumed at %v, want [50]", got)
	}
}

func TestShutdownKillsBlockedProcs(t *testing.T) {
	k := NewKernel()
	reached := false
	k.Spawn("stuck", 0, func(p *Proc) {
		p.Suspend()
		reached = true // must never run
	})
	k.Run(1000)
	k.Shutdown()
	if reached {
		t.Fatal("blocked proc must not continue past Shutdown")
	}
}

func TestShutdownKillsUnstartedProcs(t *testing.T) {
	k := NewKernel()
	started := false
	k.Spawn("late", 1_000_000, func(p *Proc) { started = true })
	k.Run(10) // start event never fires
	k.Shutdown()
	if started {
		t.Fatal("unstarted proc body must not run")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		k := NewKernel()
		var trace []int64
		for i := 0; i < 5; i++ {
			i := i
			k.Spawn("p", int64(i), func(p *Proc) {
				for j := 0; j < 20; j++ {
					p.Sleep(int64(7 + i))
					trace = append(trace, int64(i)*1000000+p.Now())
				}
			})
		}
		k.Run(math.MaxInt64)
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestStaleResumeOnDeadProcIgnored(t *testing.T) {
	// A resume that fires after the target terminated must be silently
	// dropped (the handoff checks liveness), not corrupt the kernel.
	k := NewKernel()
	var victim *Proc
	k.Spawn("victim", 0, func(p *Proc) {
		victim = p
		p.Suspend() // woken once by the attacker, then the body ends
	})
	k.Spawn("attacker", 10, func(p *Proc) {
		victim.Resume(0)
		victim.Resume(5) // fires after the victim has terminated
	})
	k.Run(math.MaxInt64)
	if k.Now() != 15 {
		t.Fatalf("clock = %d, want 15 (stale resume event still advanced time)", k.Now())
	}
}
