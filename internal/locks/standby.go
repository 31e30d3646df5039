package locks

import (
	"runtime"
	"time"

	"repro/internal/core"
)

// Env is the environment every slow path waits in, the served locks'
// (wall) or a simulated thread's (simlock.Env). No uncontended path
// calls through it.
type Env[E any] interface {
	Now() int64     // nanoseconds
	Yield()         // give the processor to another runnable thread
	Spin(step int)  // the step-th step (from 1) of one busy wait
	Sleep(ns int64) // let ns pass off the processor
	// Attach makes *slot, a queue node's handle on its waiter, name the
	// caller: Park on it blocks the caller until Unpark is called on
	// it. An Unpark that comes first is kept as a permit, and the next
	// Park returns at once.
	Attach(slot *E)
	Park()
	Unpark()
}

// StandbyFlavour names one poll schedule of the standby loop.
type StandbyFlavour uint8

const (
	// StandbyServed, Reorderable's, polls with yields for 20 µs, so a
	// short critical section ends without a sleep and a standby never
	// keeps the holder or a big competitor off a CPU when goroutines
	// outnumber CPUs; then it sleeps in slices doubling from 10 µs to
	// 1 ms (the paper's blocking flavour, footnote 3), so a long window
	// costs no CPU.
	StandbyServed StandbyFlavour = iota
	// StandbySpin is the paper's spinning flavour: checks at binary-
	// exponentially spaced instants from 50 ns, one pass of Algorithm
	// 1's spin loop.
	StandbySpin
	// StandbySleep is the paper's blocking flavour (Fig. 8h): checks
	// from 50 µs, nanosleep's practical granularity, which also keeps
	// standby competitors from beating woken immediate-path competitors
	// to every free window.
	StandbySleep
)

// schedules holds each flavour's yielding poll, first sleep and sleep
// cap in nanoseconds. The paper's flavours cap no sleep but at the
// window's end.
var schedules = [...]struct{ spin, firstSleep, maxSleep int64 }{
	StandbyServed: {20_000, 10_000, 1_000_000},
	StandbySpin:   {0, 50, core.DefaultMaxWindow},
	StandbySleep:  {0, 50_000, core.DefaultMaxWindow},
}

// Standby is Algorithm 1's standby loop (lines 8–14), the one the
// served and the simulated reorderable lock both run: it waits in e
// until l is free or the window ends. core.DefaultMaxWindow caps every
// window, keeping the lock starvation-free (§3.2).
func Standby[E Env[E]](e E, l interface{ IsFree() bool }, f StandbyFlavour, windowNs int64) {
	s := schedules[f]
	now := e.Now()
	end := now + min(windowNs, core.DefaultMaxWindow)
	for spinEnd := min(now+s.spin, end); now < spinEnd; now = e.Now() {
		if l.IsFree() {
			return
		}
		e.Yield()
	}
	for d := s.firstSleep; now < end && !l.IsFree(); now = e.Now() {
		e.Sleep(min(d, end-now))
		d = min(2*d, s.maxSleep)
	}
}

var processStart = time.Now()

// wall is the served locks' environment: a monotonic clock, the Go
// scheduler and time.Sleep. A queue node's handle parks on a one-slot
// channel.
type wall struct{ wake chan struct{} }

func (wall) Now() int64     { return int64(time.Since(processStart)) }
func (wall) Yield()         { runtime.Gosched() }
func (wall) Sleep(ns int64) { time.Sleep(time.Duration(ns)) }

// Spin yields to the scheduler every yieldEvery steps, and at every
// step when the runtime has one processor, where busy-waiting can never
// make progress. Between yields a short arithmetic loop approximates a
// PAUSE-style delay without hammering the contended cache line.
func (wall) Spin(step int) {
	if singleP || step%yieldEvery == 0 {
		runtime.Gosched()
		return
	}
	for i := 0; i < 4; i++ {
		_ = i
	}
}

// Attach gives the slot its wake channel once. The channel lives as long
// as the pooled node that holds the slot: a releaser from a previous
// life of the node may still be sending into it, so it is never
// reassigned. A stale token is drained here; one that arrives after the
// drain only causes a spurious wake, which the park loop absorbs by
// re-checking its condition.
func (wall) Attach(slot *wall) {
	if slot.wake == nil {
		slot.wake = make(chan struct{}, 1)
		return
	}
	select {
	case <-slot.wake:
	default:
	}
}

func (w wall) Park() { <-w.wake }

// Unpark sends without blocking: a pending token is already a permit.
func (w wall) Unpark() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}
