package locks

import (
	"runtime"
	"time"

	"repro/internal/core"
)

// Waiter is what a standby competitor waits with: Reorderable's is the
// wall clock (wallWaiter), the simulator's SimReorderable's a simulated
// thread's virtual clock.
type Waiter interface {
	Now() int64     // nanoseconds
	IsFree() bool   // the lock's free state
	Yield()         // give the processor to another runnable thread
	Sleep(ns int64) // let ns pass off the processor
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
// served and the simulated reorderable lock both run: it waits on w
// until the lock is free or the window ends. core.DefaultMaxWindow caps
// every window, keeping the lock starvation-free (§3.2).
func Standby[W Waiter](w W, f StandbyFlavour, windowNs int64) {
	s := schedules[f]
	now := w.Now()
	end := now + min(windowNs, core.DefaultMaxWindow)
	for spinEnd := min(now+s.spin, end); now < spinEnd; now = w.Now() {
		if w.IsFree() {
			return
		}
		w.Yield()
	}
	for d := s.firstSleep; now < end && !w.IsFree(); now = w.Now() {
		w.Sleep(min(d, end-now))
		d = min(2*d, s.maxSleep)
	}
}

var processStart = time.Now()

// wallWaiter is the served standby's seam: a monotonic clock, the
// scheduler's yield and time.Sleep.
type wallWaiter struct{ fifo FIFOLock }

func (w wallWaiter) Now() int64     { return int64(time.Since(processStart)) }
func (w wallWaiter) IsFree() bool   { return w.fifo.IsFree() }
func (w wallWaiter) Yield()         { runtime.Gosched() }
func (w wallWaiter) Sleep(ns int64) { time.Sleep(time.Duration(ns)) }
