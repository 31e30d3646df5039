// Package sim is a small discrete-event simulation kernel with
// goroutine-backed processes. It exists so the repository can model an
// asymmetric multicore machine (internal/amp) deterministically: the
// kernel runs exactly one goroutine at a time (either the event loop or
// a single resumed process), so simulated state needs no locking and a
// given seed always produces the identical event trace.
//
// Time is virtual, in int64 nanoseconds. Events fire in (time, sequence)
// order; sequence numbers break ties in scheduling order, which is what
// makes runs reproducible.
package sim

import (
	"container/heap"
	"fmt"
)

// event is one scheduled callback.
type event struct {
	at  int64
	seq uint64
	fn  func()
}

// eventHeap is a min-heap on (at, seq).
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Kernel owns the virtual clock, the event queue and all processes.
// All methods must be called from kernel context: inside an event
// callback, inside a process body, or before Run starts.
type Kernel struct {
	now    int64
	seq    uint64
	events eventHeap
	yield  chan struct{} // procs signal the kernel here when they block
	procs  []*Proc
	closed bool
}

// NewKernel returns an empty kernel at time 0.
func NewKernel() *Kernel {
	return &Kernel{yield: make(chan struct{})}
}

// Now returns the current virtual time in nanoseconds.
func (k *Kernel) Now() int64 { return k.now }

// Schedule runs fn at now+delay (in kernel context). delay < 0 panics.
func (k *Kernel) Schedule(delay int64, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	k.seq++
	heap.Push(&k.events, event{at: k.now + delay, seq: k.seq, fn: fn})
}

// Run executes events until the queue drains or virtual time exceeds
// until (inclusive). It returns the time of the last executed event.
func (k *Kernel) Run(until int64) int64 {
	for len(k.events) > 0 {
		e := heap.Pop(&k.events).(event)
		if e.at > until {
			// Push back so a later Run call can continue.
			heap.Push(&k.events, e)
			k.now = until
			return k.now
		}
		if e.at < k.now {
			panic("sim: time went backwards")
		}
		k.now = e.at
		e.fn()
	}
	return k.now
}

// Shutdown terminates all still-blocked processes (their goroutines
// unwind via an internal panic that the process wrapper recovers).
// Call after Run when abandoning a simulation early, so goroutines do
// not leak across benchmark iterations.
func (k *Kernel) Shutdown() {
	k.closed = true
	for _, p := range k.procs {
		if p.alive && p.blocked {
			p.blocked = false
			p.resume <- struct{}{}
			<-k.yield
		}
	}
	k.procs = nil
}

// killSignal unwinds a process goroutine during Shutdown.
type killSignal struct{}

// Proc is a simulated process (the model of one software thread). Its
// body runs on a dedicated goroutine, but the kernel guarantees only
// one goroutine is ever runnable, so bodies may touch shared simulator
// state freely.
type Proc struct {
	k       *Kernel
	name    string
	resume  chan struct{}
	alive   bool
	blocked bool
}

// Spawn creates a process and schedules its body to start after delay.
func (k *Kernel) Spawn(name string, delay int64, body func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, resume: make(chan struct{})}
	p.alive = true
	p.blocked = true // parked at the initial <-p.resume
	k.procs = append(k.procs, p)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killSignal); !ok {
					panic(r)
				}
			}
			p.alive = false
			k.yield <- struct{}{}
		}()
		<-p.resume
		if k.closed {
			panic(killSignal{})
		}
		body(p)
	}()
	k.Schedule(delay, func() { k.handoff(p) })
	return p
}

// handoff transfers control to p until it blocks or terminates. Must
// run in kernel context.
func (k *Kernel) handoff(p *Proc) {
	if !p.alive {
		return
	}
	if !p.blocked {
		// Two wake sources raced (e.g. a timeout event and a queue
		// grant). Simulated synchronisation objects must cancel stale
		// wakeups; surfacing the bug beats silently corrupting time.
		panic("sim: resume of a process that is not blocked: " + p.name)
	}
	p.blocked = false
	p.resume <- struct{}{}
	<-k.yield
}

// Name returns the process name (for traces and tests).
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() int64 { return p.k.Now() }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// yieldToKernel blocks the calling process until something resumes it.
func (p *Proc) yieldToKernel() {
	p.blocked = true
	p.k.yield <- struct{}{}
	<-p.resume
	if p.k.closed {
		panic(killSignal{})
	}
}

// Sleep suspends the process for d virtual nanoseconds.
func (p *Proc) Sleep(d int64) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if d == 0 {
		// Even a zero-length sleep is a scheduling point: other events
		// at the same timestamp that were scheduled earlier run first.
		p.k.Schedule(0, func() { p.k.handoff(p) })
		p.yieldToKernel()
		return
	}
	p.k.Schedule(d, func() { p.k.handoff(p) })
	p.yieldToKernel()
}

// Suspend blocks the process until another process or event calls
// Resume.
func (p *Proc) Suspend() { p.yieldToKernel() }

// Resume schedules p to continue after delay. It must only be called
// for a process that is (or is about to be) suspended via Suspend;
// resuming a sleeping process is a bug in the caller.
func (p *Proc) Resume(delay int64) {
	p.k.Schedule(delay, func() { p.k.handoff(p) })
}
