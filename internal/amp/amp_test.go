package amp

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// testConfig returns a 2+2 machine with jitter disabled so durations
// are exact.
func testConfig() Config {
	return Config{Bigs: 2, Littles: 2, LittleCSFactor: 3, LittleNCSFactor: 2, JitterPct: -1}
}

func TestMachineLayout(t *testing.T) {
	k := sim.NewKernel()
	m := NewMachine(k, testConfig())
	if len(m.Cores()) != 4 {
		t.Fatalf("cores = %d, want 4", len(m.Cores()))
	}
	for i, c := range m.Cores() {
		wantClass := core.Big
		if i >= 2 {
			wantClass = core.Little
		}
		if c.Class() != wantClass {
			t.Fatalf("core %d class = %v, want %v", i, c.Class(), wantClass)
		}
		if c.ID() != i {
			t.Fatalf("core %d has ID %d", i, c.ID())
		}
	}
}

func TestComputeScaling(t *testing.T) {
	k := sim.NewKernel()
	m := NewMachine(k, testConfig())
	var bigCS, littleCS, littleNCS int64
	m.NewThread("big", 0, 0, func(th *Thread) {
		start := th.Now()
		th.Compute(1000, CS)
		bigCS = th.Now() - start
	})
	m.NewThread("little", 2, 0, func(th *Thread) {
		start := th.Now()
		th.Compute(1000, CS)
		littleCS = th.Now() - start
		start = th.Now()
		th.Compute(1000, NCS)
		littleNCS = th.Now() - start
	})
	k.RunAll()
	if bigCS != 1000 {
		t.Errorf("big CS took %d, want 1000", bigCS)
	}
	if littleCS != 3000 {
		t.Errorf("little CS took %d, want 3000 (factor 3)", littleCS)
	}
	if littleNCS != 2000 {
		t.Errorf("little NCS took %d, want 2000 (factor 2)", littleNCS)
	}
}

func TestParkUnpark(t *testing.T) {
	cfg := testConfig()
	cfg.WakeLatency = 100
	cfg.CtxSwitch = 10
	k := sim.NewKernel()
	m := NewMachine(k, cfg)
	var sleeper *Thread
	var wokenAt int64
	m.NewThread("sleeper", 0, 0, func(th *Thread) {
		sleeper = th
		th.Park()
		wokenAt = th.Now()
	})
	m.NewThread("waker", 1, 0, func(th *Thread) {
		th.Compute(1000, NCS)
		Unpark(sleeper)
	})
	k.RunAll()
	// Wake at 1000 + WakeLatency(100) + CtxSwitch(10).
	if wokenAt != 1110 {
		t.Fatalf("woken at %d, want 1110", wokenAt)
	}
}

func TestOversubscriptionSharing(t *testing.T) {
	// Two CPU-bound threads on one core must each see ~half the core:
	// total wall time for 2x5ms of work is ~10ms.
	cfg := testConfig()
	cfg.Quantum = 1_000_000 // 1 ms
	cfg.CtxSwitch = 0
	k := sim.NewKernel()
	m := NewMachine(k, cfg)
	var done [2]int64
	for i := 0; i < 2; i++ {
		i := i
		m.NewThread("t", 0, 0, func(th *Thread) {
			th.Compute(5_000_000, NCS)
			done[i] = th.Now()
		})
	}
	k.RunAll()
	for i, d := range done {
		if d < 9_000_000 || d > 10_100_000 {
			t.Errorf("thread %d finished at %d, want ~10ms (fair sharing)", i, d)
		}
	}
}

func TestDedicatedCoreNoPreemption(t *testing.T) {
	// A single thread on a core runs its compute in one go.
	k := sim.NewKernel()
	m := NewMachine(k, testConfig())
	var finished int64
	m.NewThread("solo", 0, 0, func(th *Thread) {
		th.Compute(10_000_000, NCS)
		finished = th.Now()
	})
	k.RunAll()
	if finished != 10_000_000 {
		t.Fatalf("finished at %d, want exactly 10ms", finished)
	}
}

func TestWakePreemption(t *testing.T) {
	// A woken thread must preempt the running co-thread within the
	// preemption granularity, not wait for its full quantum.
	cfg := testConfig()
	cfg.Quantum = 10_000_000 // long quantum: preemption must not wait for it
	cfg.WakeLatency = 100
	cfg.CtxSwitch = 0
	k := sim.NewKernel()
	m := NewMachine(k, cfg)
	var sleeper *Thread
	var wokenAt int64
	m.NewThread("sleeper", 0, 0, func(th *Thread) {
		sleeper = th
		th.Park()
		wokenAt = th.Now()
	})
	m.NewThread("spinner", 0, 0, func(th *Thread) {
		th.Compute(50_000_000, NCS) // hog the core
	})
	m.NewThread("waker", 1, 0, func(th *Thread) {
		th.Compute(1_000_000, NCS)
		Unpark(sleeper)
	})
	k.RunAll()
	// Wake issued at 1ms; +100ns wake latency; preemption within 2µs.
	if wokenAt < 1_000_000 || wokenAt > 1_010_000 {
		t.Fatalf("woken at %d, want within ~4µs of 1ms (wake preemption)", wokenAt)
	}
}

func TestSleepForReleasesCPU(t *testing.T) {
	// While one thread nanosleeps, its co-thread must get the core; the
	// co-thread is gone when the sleeper wakes, so the sleeper takes the
	// idle core at once.
	cfg := testConfig()
	cfg.CtxSwitch = 0
	k := sim.NewKernel()
	m := NewMachine(k, cfg)
	var progress, woke int64
	m.NewThread("sleeper", 0, 0, func(th *Thread) {
		th.SleepFor(1_000_000)
		woke = th.Now()
	})
	m.NewThread("worker", 0, 0, func(th *Thread) {
		start := th.Now()
		th.Compute(500_000, NCS)
		progress = th.Now() - start
	})
	k.RunAll()
	if progress > 600_000 {
		t.Fatalf("worker took %d, should run while sleeper sleeps", progress)
	}
	if woke != 1_000_000 {
		t.Fatalf("sleeper resumed at %d, want 1000000 on the idle core", woke)
	}
}

func TestJitterBounds(t *testing.T) {
	cfg := testConfig()
	cfg.JitterPct = 5
	cfg.Seed = 123
	k := sim.NewKernel()
	m := NewMachine(k, cfg)
	var durations []int64
	m.NewThread("t", 0, 0, func(th *Thread) {
		for i := 0; i < 100; i++ {
			s := th.Now()
			th.Compute(10_000, NCS)
			durations = append(durations, th.Now()-s)
		}
	})
	k.RunAll()
	varied := false
	for _, d := range durations {
		if d < 9_500 || d > 10_500 {
			t.Fatalf("jittered duration %d outside ±5%%", d)
		}
		if d != 10_000 {
			varied = true
		}
	}
	if !varied {
		t.Fatal("jitter had no effect")
	}
}

func TestYield(t *testing.T) {
	cfg := testConfig()
	cfg.CtxSwitch = 0
	cfg.Quantum = 1 << 40
	k := sim.NewKernel()
	m := NewMachine(k, cfg)
	var order []string
	m.NewThread("a", 0, 0, func(th *Thread) {
		th.Compute(100, NCS)
		order = append(order, "a1")
		th.Yield()
		order = append(order, "a2")
	})
	m.NewThread("b", 0, 0, func(th *Thread) {
		order = append(order, "b")
	})
	k.RunAll()
	if len(order) != 3 || order[0] != "a1" || order[1] != "b" || order[2] != "a2" {
		t.Fatalf("order = %v, want [a1 b a2]", order)
	}
}
