// Package amp models an asymmetric multicore processor (AMP) on top of
// the discrete-event kernel in internal/sim. It is the stand-in for the
// paper's Apple M1 testbed: cores carry a class (big or little) and
// per-class slowdown factors for critical and non-critical work;
// threads consume CPU time on their core; cores can be over-subscribed,
// in which case a round-robin scheduler with a CFS-like quantum,
// context-switch cost and wake-up latency arbitrates — the ingredients
// Bench-6 (Fig. 8h/8i) depends on.
//
// The model is deliberately minimal: the paper's collapse phenomena are
// functions of (a) the ratio of critical-section durations between core
// classes, (b) the atomic-operation success-rate asymmetry (modelled in
// internal/simlock), and (c) blocking/wake-up behaviour under
// over-subscription. All three are explicit parameters here.
package amp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/prng"
	"repro/internal/sim"
)

// WorkKind distinguishes critical-section work (memory-bound
// read-modify-write in the paper's benchmarks) from non-critical work
// (NOP loops). The two scale differently across core classes: on the M1
// big cores are ~3.75x faster on Sysbench but only ~1.8x faster on NOPs
// (§4, Evaluation Setup).
type WorkKind int

const (
	// CS is critical-section (memory-heavy) work.
	CS WorkKind = iota
	// NCS is non-critical-section (compute/NOP) work.
	NCS
)

// Config describes the simulated machine.
type Config struct {
	// Bigs and Littles are the core counts (4+4 on the M1).
	Bigs, Littles int
	// LittleCSFactor is how much longer a critical section takes on a
	// little core (durations are given in big-core nanoseconds).
	// Zero means 2.4.
	LittleCSFactor float64
	// LittleNCSFactor is the same for non-critical work. Zero means 1.8.
	LittleNCSFactor float64
	// Quantum is the scheduler timeslice under over-subscription.
	// Zero means 3 ms (a CFS-like granularity).
	Quantum int64
	// CtxSwitch is charged whenever a core switches threads.
	// Zero means 2 µs.
	CtxSwitch int64
	// WakeLatency is the delay between an unpark and the thread
	// becoming runnable (futex wake + scheduler latency).
	// Zero means 5 µs.
	WakeLatency int64
	// JitterPct adds deterministic pseudo-random noise of ±JitterPct
	// percent to every Compute call. Real machines never run two
	// threads in perfect phase; without noise the event-driven model
	// can lock into artificial convoys (e.g. two threads barging a
	// mutex back and forth forever). Zero means 2; negative disables.
	JitterPct float64
	// Seed drives the jitter PRNG streams.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.LittleCSFactor == 0 {
		c.LittleCSFactor = 2.4
	}
	if c.LittleNCSFactor == 0 {
		c.LittleNCSFactor = 1.8
	}
	if c.Quantum == 0 {
		c.Quantum = 3_000_000
	}
	if c.CtxSwitch == 0 {
		c.CtxSwitch = 2_000
	}
	if c.WakeLatency == 0 {
		c.WakeLatency = 5_000
	}
	if c.JitterPct == 0 {
		c.JitterPct = 2
	}
	return c
}

// M1Config returns the 4-big + 4-little default machine.
func M1Config() Config { return Config{Bigs: 4, Littles: 4} }

// Machine is a simulated AMP.
type Machine struct {
	K     *sim.Kernel
	cfg   Config
	cores []*Core
}

// NewMachine builds a machine on the given kernel.
func NewMachine(k *sim.Kernel, cfg Config) *Machine {
	cfg = cfg.withDefaults()
	m := &Machine{K: k, cfg: cfg}
	for i := 0; i < cfg.Bigs; i++ {
		m.cores = append(m.cores, &Core{m: m, id: len(m.cores), class: core.Big})
	}
	for i := 0; i < cfg.Littles; i++ {
		m.cores = append(m.cores, &Core{m: m, id: len(m.cores), class: core.Little})
	}
	return m
}

// Cores returns the machine's cores, big cores first.
func (m *Machine) Cores() []*Core { return m.cores }

// Core returns core i (big cores occupy the low indices).
func (m *Machine) Core(i int) *Core { return m.cores[i] }

// Config returns the machine configuration (after defaulting).
func (m *Machine) Config() Config { return m.cfg }

// Core is one simulated CPU core.
type Core struct {
	m       *Machine
	id      int
	class   core.Class
	current *Thread
	runq    []*Thread
	threads int // threads bound to this core (for the dedicated fast path)
}

// ID returns the core's index.
func (c *Core) ID() int { return c.id }

// Class returns the core's class.
func (c *Core) Class() core.Class { return c.class }

// scale converts big-core nanoseconds into this core's execution time.
func (c *Core) scale(d int64, kind WorkKind) int64 {
	if c.class == core.Big || d == 0 {
		return d
	}
	f := c.m.cfg.LittleCSFactor
	if kind == NCS {
		f = c.m.cfg.LittleNCSFactor
	}
	return int64(float64(d) * f)
}

// oversubscribed reports whether CPU arbitration is needed at all.
func (c *Core) oversubscribed() bool { return c.threads > 1 }

// dispatch promotes the next runnable thread (if any) to current and
// resumes it after a context switch. Must run in kernel context with
// c.current == nil.
func (c *Core) dispatch() {
	if len(c.runq) == 0 {
		return
	}
	t := c.runq[0]
	c.runq = c.runq[1:]
	t.wakePreempt = false
	c.current = t
	t.quantumLeft = c.m.cfg.Quantum
	t.proc.Resume(c.m.cfg.CtxSwitch)
}

// leaveCPU removes t from the core (t must be current) and lets the
// next thread run.
func (c *Core) leaveCPU(t *Thread) {
	if c.current != t {
		panic(fmt.Sprintf("amp: thread %s leaving core %d it does not occupy", t.name, c.id))
	}
	c.current = nil
	c.dispatch()
}

// acquireCPU blocks t until it occupies the core.
func (c *Core) acquireCPU(t *Thread) {
	if c.current == nil && len(c.runq) == 0 {
		c.current = t
		t.quantumLeft = c.m.cfg.Quantum
		return
	}
	c.runq = append(c.runq, t)
	t.proc.Suspend() // dispatch() resumes us
}

// ready makes a previously parked thread runnable: it either takes the
// idle core directly or jumps to the front of the run queue with the
// wake-preemption flag set, so the current occupant yields at its next
// preemption point (within preemptGranularity) — CFS wake-up
// preemption. Crucially this can preempt a lock holder mid-critical-
// section, the classic over-subscription pathology Bench-6 exercises.
func (c *Core) ready(t *Thread) {
	t.wakePreempt = true
	c.runq = append([]*Thread{t}, c.runq...)
	if c.current == nil {
		c.dispatch()
	}
}

// preemptGranularity is how quickly a running thread notices a pending
// wake preemption (scheduler-tick/IPI latency).
const preemptGranularity = 2_000

// Thread is a simulated software thread bound to one core.
type Thread struct {
	m           *Machine
	core        *Core
	proc        *sim.Proc
	name        string
	quantumLeft int64
	jitter      *prng.SplitMix64
	// wakePreempt marks a freshly woken thread that should preempt the
	// core's current occupant at its next preemption point (CFS wake-up
	// preemption: a thread that slept carries vruntime credit).
	wakePreempt bool
}

// jittered perturbs a duration by the machine's configured noise.
func (t *Thread) jittered(d int64) int64 {
	pct := t.m.cfg.JitterPct
	if pct <= 0 || d == 0 {
		return d
	}
	u := prng.Float64(t.jitter) // [0,1)
	f := 1 + pct/100*(2*u-1)    // 1 ± pct%
	out := int64(float64(d) * f)
	if out < 0 {
		out = 0
	}
	return out
}

// NewThread creates a thread on core coreID whose body starts after
// startDelay. The body runs with the CPU held; Compute, Park, SleepFor
// and Yield model its interaction with the core.
func (m *Machine) NewThread(name string, coreID int, startDelay int64, body func(t *Thread)) *Thread {
	c := m.cores[coreID]
	c.threads++
	t := &Thread{m: m, core: c, name: name}
	t.jitter = prng.NewSplitMix64(m.cfg.Seed ^ (0x5bd1e995*uint64(coreID+1) + uint64(c.threads)))
	t.proc = m.K.Spawn(name, startDelay, func(p *sim.Proc) {
		t.core.acquireCPU(t)
		body(t)
		t.core.leaveCPU(t)
	})
	return t
}

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// Core returns the thread's core.
func (t *Thread) Core() *Core { return t.core }

// Class returns the class of the thread's core.
func (t *Thread) Class() core.Class { return t.core.class }

// Proc exposes the underlying simulation process for lock
// implementations that model spinning (the thread keeps occupying its
// core while the proc is suspended on a lock queue — exactly what a
// spinning waiter does).
func (t *Thread) Proc() *sim.Proc { return t.proc }

// Now returns the current virtual time.
func (t *Thread) Now() int64 { return t.m.K.Now() }

// Clock returns a core.Clock reading virtual time, for wiring
// simulated workers to the LibASL feedback code.
func (t *Thread) Clock() core.Clock { return t.m.K.Now }

// Compute consumes d big-core nanoseconds of work of the given kind,
// scaled for this core's class, honouring preemption when the core is
// over-subscribed.
func (t *Thread) Compute(d int64, kind WorkKind) {
	remaining := t.jittered(t.core.scale(d, kind))
	if !t.core.oversubscribed() {
		if remaining > 0 {
			t.proc.Sleep(remaining)
		}
		return
	}
	for remaining > 0 {
		slice := remaining
		if slice > t.quantumLeft {
			slice = t.quantumLeft
		}
		if slice > preemptGranularity {
			slice = preemptGranularity
		}
		t.proc.Sleep(slice)
		remaining -= slice
		t.quantumLeft -= slice
		c := t.core
		switch {
		case t.quantumLeft == 0:
			if len(c.runq) > 0 {
				t.yieldCPU() // back of the run queue
			} else {
				t.quantumLeft = t.m.cfg.Quantum
			}
		case len(c.runq) > 0 && c.runq[0].wakePreempt:
			// A wake arrived: the woken thread preempts us now, even
			// mid-critical-section.
			c.runq[0].wakePreempt = false
			t.yieldCPU()
		}
	}
}

// yieldCPU moves the current thread to the back of the run queue and
// blocks until it is dispatched again.
func (t *Thread) yieldCPU() {
	c := t.core
	c.current = nil
	c.runq = append(c.runq, t)
	c.dispatch()
	t.proc.Suspend()
}

// Park releases the CPU and suspends the thread until Unpark. The
// caller must arrange the Unpark (lost wakeups are the caller's bug,
// as with real futexes).
func (t *Thread) Park() {
	t.core.leaveCPU(t)
	t.proc.Suspend()
	// Unpark → ready → dispatch resumed us; we are current again.
}

// Unpark makes the parked thread target runnable after the machine's
// wake latency. Call from any kernel context (another thread's body or
// an event callback).
func Unpark(target *Thread) {
	target.m.K.Schedule(target.m.cfg.WakeLatency, func() {
		target.core.ready(target)
	})
}

// SleepFor releases the CPU for d nanoseconds (a nanosleep), then
// re-acquires it with wake-preemption priority (a thread returning from
// sleep carries vruntime credit under CFS). Used by the blocking
// reorderable lock's standby back-off (footnote 3 of the paper).
func (t *Thread) SleepFor(d int64) {
	if !t.core.oversubscribed() {
		// Dedicated core: sleeping and spinning cost the same.
		if d > 0 {
			t.proc.Sleep(d)
		}
		return
	}
	t.core.leaveCPU(t)
	t.proc.Sleep(d)
	c := t.core
	if c.current == nil && len(c.runq) == 0 {
		c.current = t
		t.quantumLeft = t.m.cfg.Quantum
		return
	}
	t.wakePreempt = true
	c.runq = append([]*Thread{t}, c.runq...)
	t.proc.Suspend() // dispatch resumes us at the next preemption point
}

// Yield gives up the CPU to the next runnable thread, if any.
func (t *Thread) Yield() {
	if !t.core.oversubscribed() || len(t.core.runq) == 0 {
		return
	}
	c := t.core
	c.current = nil
	c.runq = append(c.runq, t)
	c.dispatch()
	t.proc.Suspend()
}
