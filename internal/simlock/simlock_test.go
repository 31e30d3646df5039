package simlock

import (
	"math"
	"testing"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/sim"
)

// mcsPark is the shipped spin-then-park MCS lock (locks.MCSParkOn) run
// as a simulated lock. The zero value is an unlocked lock.
type mcsPark struct{ l locks.MCSParkOn[Env] }

func (m *mcsPark) Lock(t *amp.Thread)   { m.l.Lock(Env{t}) }
func (m *mcsPark) Unlock(t *amp.Thread) { m.l.Unlock(Env{t}) }
func (m *mcsPark) IsFree() bool         { return m.l.IsFree() }

// rig builds a 2-big + 2-little machine with jitter disabled.
func rig() (*sim.Kernel, *amp.Machine) {
	k := sim.NewKernel()
	m := amp.NewMachine(k, amp.Config{
		Bigs: 2, Littles: 2,
		LittleCSFactor: 3, LittleNCSFactor: 2,
		JitterPct: -1,
	})
	return k, m
}

// exercise runs threads (one per core, big cores first) doing iters
// lock/compute/unlock rounds and fails on any mutual-exclusion
// violation.
func exercise(t *testing.T, l Lock, threads, iters int, csNs, ncsNs int64) {
	t.Helper()
	k, m := rig()
	inside := 0
	violations := 0
	for i := 0; i < threads; i++ {
		m.NewThread("t", i, int64(i), func(th *amp.Thread) {
			for j := 0; j < iters; j++ {
				l.Lock(th)
				inside++
				if inside != 1 {
					violations++
				}
				th.Compute(csNs, amp.CS)
				inside--
				l.Unlock(th)
				th.Compute(ncsNs, amp.NCS)
			}
		})
	}
	k.Run(math.MaxInt64)
	k.Shutdown()
	if violations != 0 {
		t.Fatalf("%d mutual-exclusion violations", violations)
	}
}

func allSimLocks() map[string]func() Lock {
	return map[string]func() Lock{
		"mcs":     func() Lock { return &SimMCS{} },
		"ticket":  func() Lock { return &SimTicket{} },
		"tas":     func() Lock { return &SimTAS{Seed: 1} },
		"barging": func() Lock { return &SimBarging{} },
		"mcspark": func() Lock { return &mcsPark{} },
		"mcs-stp": func() Lock { return &SimMCSPark{} },
		"prop":    func() Lock { return &SimProportional{} },
	}
}

func TestSimLockMutualExclusion(t *testing.T) {
	for name, mk := range allSimLocks() {
		t.Run(name, func(t *testing.T) {
			exercise(t, mk(), 4, 200, 100, 50)
		})
	}
}

func TestSimLockAllComplete(t *testing.T) {
	// Every thread must finish its iterations (no starvation with a
	// finite workload and no open-ended competition).
	for name, mk := range allSimLocks() {
		t.Run(name, func(t *testing.T) {
			k, m := rig()
			l := mk()
			done := 0
			for i := 0; i < 4; i++ {
				m.NewThread("t", i, int64(i), func(th *amp.Thread) {
					for j := 0; j < 100; j++ {
						l.Lock(th)
						th.Compute(100, amp.CS)
						l.Unlock(th)
						th.Compute(100, amp.NCS)
					}
					done++
				})
			}
			k.Run(math.MaxInt64)
			k.Shutdown()
			if done != 4 {
				t.Fatalf("only %d/4 threads completed", done)
			}
		})
	}
}

// immediate is a SimReorderable taken through its immediate path, so
// the reorderable lock fits the FIFO table below.
type immediate struct{ *SimReorderable }

func (r immediate) Lock(t *amp.Thread) { r.LockImmediately(t) }

// TestSimIsFreeConformance pins, on every simulated family, the IsFree
// transitions SimReorderable's standby competitors poll: held ⇒ not
// free, held with a waiter queued ⇒ not free, released ⇒ free. It
// mirrors locks.TestIsFreeConformance for the real locks.
func TestSimIsFreeConformance(t *testing.T) {
	fams := map[string]func() FIFO{
		"mcs":     func() FIFO { return &SimMCS{} },
		"ticket":  func() FIFO { return &SimTicket{} },
		"tas":     func() FIFO { return &SimTAS{Seed: 1} },
		"barging": func() FIFO { return &SimBarging{} },
		"mcspark": func() FIFO { return &mcsPark{} },
		"mcs-stp": func() FIFO { return &SimMCSPark{} },
		"prop":    func() FIFO { return &SimProportional{} },
		"reorder": func() FIFO { return immediate{&SimReorderable{Fifo: &SimMCS{}}} },
	}
	for name, mk := range fams {
		t.Run(name, func(t *testing.T) {
			k, m := rig()
			l := mk()
			if !l.IsFree() {
				t.Fatal("fresh lock must report free")
			}
			const hold = 10_000
			heldFree, queuedFree := true, true
			var waiterAt int64
			m.NewThread("holder", 0, 0, func(th *amp.Thread) {
				l.Lock(th)
				heldFree = l.IsFree()
				th.Compute(hold, amp.CS) // the waiter queues meanwhile
				queuedFree = l.IsFree()
				l.Unlock(th)
			})
			m.NewThread("waiter", 2, 100, func(th *amp.Thread) {
				l.Lock(th)
				waiterAt = th.Now()
				l.Unlock(th)
			})
			k.Run(math.MaxInt64)
			k.Shutdown()
			if waiterAt < hold {
				t.Fatalf("waiter acquired at %d, before the holder released", waiterAt)
			}
			if heldFree {
				t.Fatal("held lock must not report free")
			}
			if queuedFree {
				t.Fatal("held lock with a queued waiter must not report free")
			}
			if !l.IsFree() {
				t.Fatal("released lock must report free")
			}
		})
	}
}

func TestSimMCSFIFO(t *testing.T) {
	k, m := rig()
	l := &SimMCS{}
	var order []int
	holder := m.NewThread("holder", 0, 0, func(th *amp.Thread) {
		l.Lock(th)
		th.Compute(10_000, amp.CS) // hold while others queue
		l.Unlock(th)
	})
	_ = holder
	for i := 1; i < 4; i++ {
		i := i
		// Stagger arrivals: thread i enqueues at t = i*100.
		m.NewThread("w", i, int64(i)*100, func(th *amp.Thread) {
			l.Lock(th)
			order = append(order, i)
			l.Unlock(th)
		})
	}
	k.Run(math.MaxInt64)
	k.Shutdown()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("handover order = %v, want [1 2 3]", order)
	}
}

func TestSimTASAffinityStarvesDisfavoured(t *testing.T) {
	// With an extreme big-core bias and constant contention, big
	// threads must complete far more rounds.
	k, m := rig()
	l := &SimTAS{Seed: 3, Aff: Affinity{Favoured: core.Big, Factor: 50}}
	counts := make([]int, 4)
	for i := 0; i < 4; i++ {
		i := i
		m.NewThread("t", i, int64(i), func(th *amp.Thread) {
			for {
				l.Lock(th)
				th.Compute(500, amp.CS)
				l.Unlock(th)
				counts[i]++
				th.Compute(10, amp.NCS)
			}
		})
	}
	k.Run(5_000_000)
	k.Shutdown()
	bigOps := counts[0] + counts[1]
	littleOps := counts[2] + counts[3]
	if bigOps < littleOps*5 {
		t.Fatalf("biased TAS: big=%d little=%d, want strong bias", bigOps, littleOps)
	}
}

func TestSimTASNeutralRoughlyFair(t *testing.T) {
	k, m := rig()
	l := &SimTAS{Seed: 3}
	counts := make([]int, 4)
	for i := 0; i < 4; i++ {
		i := i
		m.NewThread("t", i, int64(i), func(th *amp.Thread) {
			for {
				l.Lock(th)
				th.Compute(500, amp.CS) // same CS cost in wall time? no: class-scaled
				l.Unlock(th)
				counts[i]++
				th.Compute(10, amp.NCS)
			}
		})
	}
	k.Run(5_000_000)
	k.Shutdown()
	bigOps := counts[0] + counts[1]
	littleOps := counts[2] + counts[3]
	// Neutral arbitration: littles still complete a healthy share
	// (their longer CS slows everyone, not their win rate).
	if littleOps*4 < bigOps {
		t.Fatalf("neutral TAS skewed: big=%d little=%d", bigOps, littleOps)
	}
}

func TestSimProportionalPolicy(t *testing.T) {
	k, m := rig()
	l := &SimProportional{N: 2}
	var grants []core.Class
	// One holder keeps the lock while 3 waiters queue; then grants
	// follow the 2-bigs-then-1-little policy.
	m.NewThread("holder", 0, 0, func(th *amp.Thread) {
		l.Lock(th)
		th.Compute(5_000, amp.CS)
		l.Unlock(th)
	})
	for i := 1; i < 4; i++ {
		i := i
		m.NewThread("w", i, int64(i)*50, func(th *amp.Thread) {
			for j := 0; j < 3; j++ {
				l.Lock(th)
				grants = append(grants, th.Class())
				th.Compute(500, amp.CS)
				l.Unlock(th)
				th.Compute(100, amp.NCS)
			}
		})
	}
	k.Run(math.MaxInt64)
	k.Shutdown()
	if len(grants) != 9 {
		t.Fatalf("grants = %d, want 9", len(grants))
	}
	// The policy admits at most 1 little per 2 big handovers while the
	// big queue is non-empty; overall littles must not dominate early.
	littleEarly := 0
	for _, c := range grants[:4] {
		if c == core.Little {
			littleEarly++
		}
	}
	if littleEarly > 2 {
		t.Fatalf("proportional policy let littles dominate: %v", grants)
	}
}

func TestSimBargingWakesSleepers(t *testing.T) {
	k, m := rig()
	l := &SimBarging{}
	completions := 0
	for i := 0; i < 4; i++ {
		m.NewThread("t", i, int64(i), func(th *amp.Thread) {
			for j := 0; j < 50; j++ {
				l.Lock(th)
				th.Compute(1000, amp.CS)
				l.Unlock(th)
				th.Compute(5000, amp.NCS)
			}
			completions++
		})
	}
	k.Run(math.MaxInt64)
	k.Shutdown()
	if completions != 4 {
		t.Fatalf("completions = %d, want 4 (lost wakeup?)", completions)
	}
}

// TestMCSParkPaysWakeLatency runs the shipped MCSPark on virtual time.
// A handover inside the waiter's spin phase reaches it within one spin
// step. Past the spin phase the waiter has parked, and the handover pays
// exactly the machine's wake-up latency and a context switch.
func TestMCSParkPaysWakeLatency(t *testing.T) {
	for _, tc := range []struct {
		name           string
		hold, min, max int64 // the waiter acquires in [hold+min, hold+max]
	}{
		{"spinning", 5_000, 0, SpinStepNs},
		{"parked", 100_000, 7_000, 7_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, m := rig()
			if c := m.Config(); c.WakeLatency+c.CtxSwitch != 7_000 {
				t.Fatalf("rig wakes in %d ns, the cases assume 7000", c.WakeLatency+c.CtxSwitch)
			}
			l := &mcsPark{}
			acquiredAt := int64(-1)
			m.NewThread("holder", 0, 0, func(th *amp.Thread) {
				l.Lock(th)
				th.Compute(tc.hold, amp.CS)
				l.Unlock(th)
			})
			m.NewThread("waiter", 1, 100, func(th *amp.Thread) {
				l.Lock(th)
				acquiredAt = th.Now()
				l.Unlock(th)
			})
			k.Run(math.MaxInt64)
			k.Shutdown()
			if acquiredAt < 0 {
				t.Fatal("the waiter never acquired: its wake-up was lost")
			}
			if lag := acquiredAt - tc.hold; lag < tc.min || lag > tc.max {
				t.Fatalf("the waiter acquired %d ns after the release, want %d to %d", lag, tc.min, tc.max)
			}
		})
	}
}

func TestSimMCSParkPaysWakeLatency(t *testing.T) {
	// Handover to a parked waiter must cost at least the machine wake
	// latency; SimMCS handover must be far cheaper.
	measure := func(l Lock) int64 {
		k, m := rig()
		var acquiredAt int64
		m.NewThread("holder", 0, 0, func(th *amp.Thread) {
			l.Lock(th)
			th.Compute(10_000, amp.CS)
			l.Unlock(th)
		})
		m.NewThread("waiter", 1, 100, func(th *amp.Thread) {
			l.Lock(th)
			acquiredAt = th.Now()
			l.Unlock(th)
		})
		k.Run(math.MaxInt64)
		k.Shutdown()
		return acquiredAt
	}
	spin := measure(&SimMCS{})
	park := measure(&SimMCSPark{})
	if park <= spin {
		t.Fatalf("parked handover (%d) must be slower than spinning handover (%d)", park, spin)
	}
	if park-spin < 4_000 {
		t.Fatalf("parked handover should pay ~wake latency, delta = %d", park-spin)
	}
}

func TestSimReorderableImmediateVsStandby(t *testing.T) {
	k, m := rig()
	r := &SimReorderable{Fifo: &SimMCS{}}
	var order []string
	m.NewThread("holder", 0, 0, func(th *amp.Thread) {
		r.LockImmediately(th)
		th.Compute(20_000, amp.CS)
		r.Unlock(th)
	})
	// The standby (little, big window) starts polling at t=100.
	m.NewThread("standby", 2, 100, func(th *amp.Thread) {
		r.LockReorder(th, 1_000_000)
		order = append(order, "standby")
		r.Unlock(th)
	})
	// The immediate (big) arrives later, at t=10000, but overtakes.
	m.NewThread("imm", 1, 10_000, func(th *amp.Thread) {
		r.LockImmediately(th)
		order = append(order, "imm")
		r.Unlock(th)
	})
	k.Run(math.MaxInt64)
	k.Shutdown()
	if len(order) != 2 || order[0] != "imm" || order[1] != "standby" {
		t.Fatalf("order = %v, want [imm standby]", order)
	}
}

func TestSimReorderableWindowExpiryEnqueues(t *testing.T) {
	k, m := rig()
	r := &SimReorderable{Fifo: &SimMCS{}}
	var standbyAt int64
	m.NewThread("holder", 0, 0, func(th *amp.Thread) {
		r.LockImmediately(th)
		th.Compute(500_000, amp.CS) // holds long past the window
		r.Unlock(th)
	})
	m.NewThread("standby", 2, 100, func(th *amp.Thread) {
		r.LockReorder(th, 50_000) // window ends at ~50µs
		standbyAt = th.Now()
		r.Unlock(th)
	})
	k.Run(math.MaxInt64)
	k.Shutdown()
	// The standby enqueued at window expiry and acquired right after
	// the holder released at 500µs.
	if standbyAt < 500_000 || standbyAt > 520_000 {
		t.Fatalf("standby acquired at %d, want shortly after 500µs", standbyAt)
	}
}

func TestSimReorderableFreeGrab(t *testing.T) {
	k, m := rig()
	r := &SimReorderable{Fifo: &SimMCS{}}
	var at int64 = -1
	m.NewThread("standby", 2, 0, func(th *amp.Thread) {
		r.LockReorder(th, 1_000_000_000)
		at = th.Now()
		r.Unlock(th)
	})
	k.Run(math.MaxInt64)
	k.Shutdown()
	if at != 0 {
		t.Fatalf("free lock must be taken immediately, got t=%d", at)
	}
}

// TestSimReorderableWindowCap drives the shared standby loop past
// core.DefaultMaxWindow: a standby asking for an unbounded window
// enqueues once the cap has passed, so an immediate-path competitor
// arriving after the cap queues behind it instead of overtaking it.
func TestSimReorderableWindowCap(t *testing.T) {
	k, m := rig()
	r := &SimReorderable{Fifo: &SimMCS{}}
	const hold = core.DefaultMaxWindow + 50_000_000
	var order []string
	m.NewThread("holder", 0, 0, func(th *amp.Thread) {
		r.LockImmediately(th)
		th.Compute(hold, amp.CS)
		r.Unlock(th)
	})
	m.NewThread("standby", 2, 10, func(th *amp.Thread) {
		r.LockReorder(th, 1<<50)
		order = append(order, "standby")
		r.Unlock(th)
	})
	m.NewThread("immediate", 1, core.DefaultMaxWindow+20_000_000, func(th *amp.Thread) {
		r.LockImmediately(th)
		order = append(order, "immediate")
		r.Unlock(th)
	})
	k.Run(math.MaxInt64)
	k.Shutdown()
	if len(order) != 2 || order[0] != "standby" {
		t.Fatalf("order = %v, want the standby first: its window was not capped at %d ns", order, core.DefaultMaxWindow)
	}
}

func TestXferCost(t *testing.T) {
	x := &xfer{Same: 10, Cross: 100}
	if c := x.cost(core.Big); c != 10 {
		t.Fatalf("first handover = %d, want Same (uninitialised)", c)
	}
	if c := x.cost(core.Big); c != 10 {
		t.Fatalf("same-class handover = %d, want 10", c)
	}
	if c := x.cost(core.Little); c != 100 {
		t.Fatalf("cross-class handover = %d, want 100", c)
	}
	if c := x.cost(core.Little); c != 10 {
		t.Fatalf("little→little handover = %d, want 10", c)
	}
}

func TestUnlockByNonHolderPanics(t *testing.T) {
	k, m := rig()
	l := &SimMCS{}
	var recovered any
	m.NewThread("a", 0, 0, func(th *amp.Thread) {
		l.Lock(th)
		th.Compute(1000, amp.CS)
		l.Unlock(th)
	})
	m.NewThread("b", 1, 10, func(th *amp.Thread) {
		defer func() { recovered = recover() }()
		l.Unlock(th) // not the holder
	})
	k.Run(math.MaxInt64)
	k.Shutdown()
	if recovered == nil {
		t.Fatal("unlock by non-holder must panic")
	}
}
